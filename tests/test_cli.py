"""CLI behaviour: exit status, failure summary, cache flags, parallel smoke.

``python -m repro all`` must collect per-experiment failures rather than
die on the first one, print a summary table, and exit non-zero if anything
failed; the cache flags (``--force``/``--no-cache``/``--cache-dir``) must
do what they say.  The full ``all --jobs 2`` invocation is exercised too,
as a ``slow``-marked test (it runs every experiment).
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.cli import EXPERIMENTS, ExperimentDef, main


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _tiny_registry(monkeypatch, **overrides):
    """Shrink the registry to fast experiments (plus any stubs)."""
    registry = {"fig5": EXPERIMENTS["fig5"], **overrides}
    monkeypatch.setattr(cli, "EXPERIMENTS", registry)
    return registry


class TestExitStatus:
    def test_all_ok_exits_zero_with_summary(self, monkeypatch, capsys, cache_dir):
        _tiny_registry(monkeypatch)
        assert main(["all", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "== summary ==" in out
        assert "1/1 experiments ok" in out

    def test_failure_is_collected_and_exits_nonzero(
        self, monkeypatch, capsys, cache_dir
    ):
        def explode(config):
            raise RuntimeError("synthetic experiment failure")

        _tiny_registry(
            monkeypatch,
            broken=ExperimentDef("always fails", params={}, run=explode),
        )
        assert main(["all", "--cache-dir", cache_dir]) == 1
        captured = capsys.readouterr()
        # fig5 still ran and the table names both outcomes
        assert "Fig.5" in captured.out
        assert "FAILED" in captured.out
        assert "synthetic experiment failure" in captured.err
        assert "1/2 experiments ok" in captured.out

    def test_single_failing_experiment_exits_one(
        self, monkeypatch, capsys, cache_dir
    ):
        def explode(config):
            raise RuntimeError("boom")

        _tiny_registry(
            monkeypatch,
            broken=ExperimentDef("always fails", params={}, run=explode),
        )
        assert main(["broken", "--cache-dir", cache_dir]) == 1

    def test_bad_flags_reject(self, cache_dir):
        with pytest.raises(SystemExit):
            main(["fig5", "--jobs", "0", "--cache-dir", cache_dir])
        with pytest.raises(SystemExit):
            main(["fig5", "--seed", "-3", "--cache-dir", cache_dir])


class TestCacheFlags:
    def test_warm_rerun_hits_cache(self, monkeypatch, capsys, cache_dir):
        _tiny_registry(monkeypatch)
        assert main(["all", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["all", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "[cache] fig5: hit" in out

    def test_force_reexecutes(self, monkeypatch, capsys, cache_dir):
        _tiny_registry(monkeypatch)
        main(["all", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["all", "--force", "--cache-dir", cache_dir]) == 0
        assert "[cache]" not in capsys.readouterr().out

    def test_no_cache_writes_nothing(self, monkeypatch, tmp_path, capsys):
        _tiny_registry(monkeypatch)
        cache = tmp_path / "cache"
        assert main(["fig5", "--no-cache", "--cache-dir", str(cache)]) == 0
        assert not cache.exists()

    def test_seed_feeds_the_machine_config(self, monkeypatch, capsys, cache_dir):
        """Different --seed -> different cache key -> no cross-seed hit."""
        _tiny_registry(monkeypatch)
        main(["fig5", "--seed", "11", "--cache-dir", cache_dir])
        capsys.readouterr()
        main(["fig5", "--seed", "12", "--cache-dir", cache_dir])
        assert "[cache]" not in capsys.readouterr().out
        main(["fig5", "--seed", "11", "--cache-dir", cache_dir])
        assert "[cache] fig5: hit" in capsys.readouterr().out


class TestParallelSmoke:
    def test_sharded_experiment_with_jobs_2(self, capsys, cache_dir):
        """Fast real fan-out: fig6 over 2 worker processes."""
        assert main(["fig6", "--jobs", "2", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out
        assert "Fig.6" in out

    @pytest.mark.slow
    def test_repro_all_jobs_2(self, capsys, cache_dir):
        """The ISSUE's smoke invocation: every experiment, 2 workers."""
        assert main(["all", "--jobs", "2", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "experiments ok" in out
        assert "FAILED" not in out


class TestAdaptiveAndFaultFlags:
    def _probe_registry(self, monkeypatch, seen):
        class _Rows:
            def format_rows(self):
                return ["  probe ran"]

        def probe(config):
            seen["adaptive"] = config.adaptive
            seen["schedule"] = config.faults.schedule if config.faults else None
            seen["scale"] = (
                config.faults.probe_jitter_cycles if config.faults else None
            )
            return _Rows()

        _tiny_registry(
            monkeypatch,
            probe=ExperimentDef("records config", params={}, run=probe),
        )

    def test_adaptive_flag_reaches_the_config(self, monkeypatch, capsys):
        seen = {}
        self._probe_registry(monkeypatch, seen)
        assert main(["probe", "--no-cache"]) == 0
        assert seen["adaptive"] is False
        assert main(["probe", "--adaptive", "--no-cache"]) == 0
        assert seen["adaptive"] is True

    def test_fault_spec_scale_reaches_the_config(self, monkeypatch, capsys):
        seen = {}
        self._probe_registry(monkeypatch, seen)
        assert main(["probe", "--faults", "drift@0.5", "--no-cache"]) == 0
        assert seen["schedule"] == "drift"
        base = 60  # the drift profile's probe_jitter_cycles
        assert seen["scale"] == base // 2

    def test_faults_list_names_schedules(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("drift", "step", "burst"):
            assert name in out
        assert "PROFILE@SCALE" in out
