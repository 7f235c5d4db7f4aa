"""Robustness tests: executor adverse paths, failure budgets, partial
reduction, checkpoint/resume, cache quarantine, and CLI exit codes.

The executor tests complement test_runner.py's happy paths with the
degradation contract of ROBUSTNESS.md: what happens when shards hang,
crash, or raise — with and without a failure budget — and the guarantee
that a retried shard re-runs with the *same* derived seed.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.cli import (
    EXIT_BAD_RESULT,
    EXIT_CRASH,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    EXPERIMENTS,
    ExperimentDef,
    ExperimentOutcome,
    aggregate_exit_code,
    main,
)
from repro.core.config import MachineConfig
from repro.runner import (
    MISS,
    ExperimentRunner,
    RecordingProgress,
    ResultCache,
    ShardCrashError,
    ShardExecutor,
    ShardFailure,
    ShardPlan,
    TrialSpec,
    cache_key,
    shard_entry_name,
)


# ---------------------------------------------------------------------------
# module-level shard functions (must be picklable for worker processes)
# ---------------------------------------------------------------------------

def _seed_shard(config, params, shard):
    return shard.seed


def _crash_at_shard(config, params, shard):
    """Crashes hard (no exception, no result) at the listed indices."""
    if shard.index in params["crash"]:
        os._exit(29)
    return shard.seed


def _crash_once_seed_shard(config, params, shard):
    """First attempt dies; the retry reports the shard's derived seed."""
    sentinel = params["sentinel_dir"] + f"/attempted-{shard.index}"
    if shard.index in params["crash"] and not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("attempted")
        os._exit(31)
    return shard.seed


def _raise_at_shard(config, params, shard):
    if shard.index in params["raise"]:
        raise ValueError(f"shard {shard.index} is corrupt")
    return shard.seed


def _hang_at_shard(config, params, shard):
    if shard.index in params["hang"]:
        import time

        time.sleep(60)
    return shard.seed


def _drift_crash_at_shard(config, params, shard):
    """Real drift-resilience cell, crashing hard at the listed indices."""
    from repro.experiments.drift_resilience import _drift_shard

    if shard.index in params["crash"]:
        os._exit(37)
    return _drift_shard(config, params, shard)


def _drift_fingerprint(result) -> list:
    return [
        (
            c.schedule,
            c.backend,
            c.adaptive,
            c.error_rate,
            c.symbols_decoded,
            c.rekeys,
            tuple(sorted(c.adaptive_totals.items())),
            tuple(c.recoveries),
        )
        for c in result.cells
    ]


@pytest.fixture
def config():
    return MachineConfig().scaled_down()


def _plan(n: int, experiment: str = "robust", **params) -> ShardPlan:
    spec = TrialSpec(experiment, n_trials=n, trials_per_shard=1, params=params)
    return ShardPlan.build(spec, 5)


# ---------------------------------------------------------------------------
# executor adverse paths
# ---------------------------------------------------------------------------

class TestExecutorAdversePaths:
    def test_hanging_shard_retries_then_times_out(self, config):
        from repro.runner import ShardTimeoutError

        plan = _plan(1, hang=[0])
        executor = ShardExecutor(jobs=2, shard_timeout=0.3, max_retries=1)
        with pytest.raises(ShardTimeoutError):
            executor.run(_hang_at_shard, plan, config)
        assert executor.stats.retries == 1  # it was retried before failing

    def test_crash_exhausts_the_retry_budget(self, config):
        plan = _plan(1, crash=[0])
        executor = ShardExecutor(jobs=2, max_retries=2)
        with pytest.raises(ShardCrashError):
            executor.run(_crash_at_shard, plan, config)
        # 1 initial + 2 retries, each observed as a crash.
        assert executor.stats.crashed_shards == [0, 0, 0]
        assert executor.stats.retries == 2

    def test_retried_shard_reuses_same_derived_seed(self, config, tmp_path):
        plan = _plan(3, crash=[1], sentinel_dir=str(tmp_path))
        executor = ShardExecutor(jobs=2, max_retries=1)
        results = executor.run(_crash_once_seed_shard, plan, config)
        assert executor.stats.retries == 1
        # The retry reported the same seeds a clean serial run derives.
        serial = ShardExecutor(jobs=1).run(_seed_shard, plan, config)
        assert results == serial == [s.seed for s in plan.shards]


# ---------------------------------------------------------------------------
# failure budget
# ---------------------------------------------------------------------------

class TestFailureBudget:
    def test_budget_tolerates_a_crashed_shard(self, config):
        plan = _plan(3, crash=[1])
        executor = ShardExecutor(jobs=2, max_retries=0, max_failed_shards=1)
        results = executor.run(_crash_at_shard, plan, config)
        assert results[0] == plan.shards[0].seed
        assert results[2] == plan.shards[2].seed
        failure = results[1]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "crash"
        assert failure.index == 1
        assert failure.attempts == 1
        assert executor.stats.failed_shards == [failure]

    def test_budget_exceeded_aborts(self, config):
        plan = _plan(3, crash=[0, 2])
        executor = ShardExecutor(jobs=2, max_retries=0, max_failed_shards=1)
        with pytest.raises(ShardCrashError):
            executor.run(_crash_at_shard, plan, config)

    def test_fail_fast_overrides_the_budget(self, config):
        plan = _plan(2, crash=[0])
        executor = ShardExecutor(
            jobs=2, max_retries=0, max_failed_shards=5, fail_fast=True
        )
        with pytest.raises(ShardCrashError):
            executor.run(_crash_at_shard, plan, config)

    def test_serial_exception_tolerated_as_error(self, config):
        executor = ShardExecutor(jobs=1, max_failed_shards=1)
        results = executor.run(
            _raise_at_shard, _plan(2, **{"raise": [0]}), config
        )
        assert isinstance(results[0], ShardFailure)
        assert results[0].kind == "error"
        assert "is corrupt" in results[0].message

    def test_worker_exception_not_retried_but_tolerated(self, config):
        executor = ShardExecutor(jobs=2, max_retries=3, max_failed_shards=1)
        results = executor.run(
            _raise_at_shard, _plan(2, **{"raise": [1]}), config
        )
        assert executor.stats.retries == 0
        assert isinstance(results[1], ShardFailure)
        assert results[1].kind == "error"

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ShardExecutor(max_failed_shards=-1)
        with pytest.raises(ValueError):
            ExperimentRunner(max_failed_shards=-1)


# ---------------------------------------------------------------------------
# runner: partial reduction + checkpoint/resume
# ---------------------------------------------------------------------------

class TestRunnerDegradation:
    def _spec(self, **params) -> TrialSpec:
        return TrialSpec("robust", n_trials=3, trials_per_shard=1, params=params)

    def test_partial_reduction_annotates_and_skips_store(self, tmp_path, config):
        cache = ResultCache(tmp_path / "cache")
        runner = ExperimentRunner(
            jobs=2,
            max_retries=0,
            max_failed_shards=1,
            cache=cache,
            use_cache=True,
            progress=RecordingProgress(),
        )
        spec = self._spec(crash=[1])
        result = runner.run(spec, config, _crash_at_shard, sorted)
        plan = ShardPlan.build(spec, config.seed)
        assert result == sorted([plan.shards[0].seed, plan.shards[2].seed])
        metrics = runner.history[-1]
        assert metrics.partial
        assert [f["kind"] for f in metrics.failed_shards] == ["crash"]
        assert metrics.shards_done == 2
        # Partial results must never enter the whole-run cache.
        key = cache_key("robust", config, dict(spec.params), config.seed)
        assert cache.load("robust", key) is MISS

    def test_checkpoint_resume_completes_partial_run(self, tmp_path, config):
        cache = ResultCache(tmp_path / "cache")
        spec = self._spec(crash=[1])

        crashed = ExperimentRunner(
            jobs=2,
            max_retries=0,
            max_failed_shards=1,
            cache=cache,
            use_cache=True,
            checkpoint=True,
        )
        crashed.run(spec, config, _crash_at_shard, sorted)
        key = cache_key("robust", config, dict(spec.params), config.seed)
        assert cache.load(shard_entry_name("robust", 0), key) is not MISS
        assert cache.load(shard_entry_name("robust", 1), key) is MISS

        resumed = ExperimentRunner(
            jobs=1, cache=cache, use_cache=True, checkpoint=True
        )
        result = resumed.run(spec, config, _seed_shard, sorted)
        metrics = resumed.history[-1]
        assert metrics.shards_resumed == 2
        assert not metrics.partial
        # Identical to a clean serial run, and the full result is cached.
        clean = ExperimentRunner(jobs=1).run(spec, config, _seed_shard, sorted)
        assert result == clean
        assert cache.load("robust", key) == clean
        # Shard checkpoints are cleaned up once the full run is stored.
        assert cache.load(shard_entry_name("robust", 0), key) is MISS

    def test_checkpoint_without_cache_is_inert(self, config):
        runner = ExperimentRunner(jobs=1, use_cache=False, checkpoint=True)
        runner.run(self._spec(), config, _seed_shard, sorted)
        assert runner.history[-1].shards_resumed == 0

    def test_checkpoint_resume_preserves_adaptive_recovery(self, tmp_path, config):
        """Adaptive recovery decisions survive a crash/resume unchanged.

        A drift-resilience run interrupted mid-grid and resumed from its
        shard checkpoints must produce cells bit-identical to a clean
        uninterrupted run — including every recovery event the adaptive
        supervisor took (ROBUSTNESS.md's determinism contract).
        """
        from repro.experiments import run_drift_resilience
        from repro.experiments.drift_resilience import (
            MODES,
            SCHEDULES,
            DriftResilienceResult,
            _drift_shard,
        )

        backends = ("keyed:epoch=6000",)
        grid = [
            (schedule, backend, adaptive)
            for schedule in SCHEDULES
            for backend in backends
            for adaptive in MODES
        ]
        spec = TrialSpec(
            "drift-resilience",
            n_trials=len(grid),
            trials_per_shard=1,
            params={
                "grid": grid,
                "profile": "drift",
                "n_symbols": 24,
                "rate_pps": 400_000.0,
                "wait_cycles": 30_000,
                "huge_pages": 4,
                "crash": [len(grid) - 1],
            },
        )

        def reduce(shards):
            return DriftResilienceResult(
                cells=[cell for sub in shards for cell in sub]
            )

        cache = ResultCache(tmp_path / "cache")
        crashed = ExperimentRunner(
            jobs=2,
            max_retries=0,
            max_failed_shards=1,
            cache=cache,
            use_cache=True,
            checkpoint=True,
        )
        crashed.run(spec, config, _drift_crash_at_shard, reduce)
        assert crashed.history[-1].partial

        resumed = ExperimentRunner(
            jobs=1, cache=cache, use_cache=True, checkpoint=True
        )
        result = resumed.run(spec, config, _drift_shard, reduce)
        assert resumed.history[-1].shards_resumed == len(grid) - 1
        assert not resumed.history[-1].partial

        clean = run_drift_resilience(
            config,
            backends=backends,
            runner=ExperimentRunner(jobs=1, use_cache=False),
        )
        assert _drift_fingerprint(result) == _drift_fingerprint(clean)


# ---------------------------------------------------------------------------
# cache hardening: checksums + quarantine
# ---------------------------------------------------------------------------

class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_recomputable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        path = cache.store("exp", key, {"rows": [1, 2]})
        path.write_bytes(b"definitely not a pickle")
        assert cache.load("exp", key) is MISS
        assert cache.stats.quarantined == 1
        assert not path.exists()
        assert (cache.quarantine_root / path.name).exists()
        # A fresh store at the same key works — recompute, don't crash.
        cache.store("exp", key, {"rows": [1, 2]})
        assert cache.load("exp", key) == {"rows": [1, 2]}

    def test_checksum_mismatch_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "b" * 64
        path = cache.store("exp", key, [1, 2, 3])
        payload = pickle.loads(path.read_bytes())
        payload["blob"] = pickle.dumps([9, 9, 9])  # tampered, stale checksum
        path.write_bytes(pickle.dumps(payload))
        assert cache.load("exp", key) is MISS
        assert cache.stats.quarantined == 1
        assert (cache.quarantine_root / path.name).exists()

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("exp", "c" * 64) is MISS
        assert cache.stats.quarantined == 0
        assert cache.stats.misses == 1

    def test_stale_format_version_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "d" * 64
        path = cache.path_for("exp", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps({"version": 1, "key": key, "result": "old-format"})
        )
        assert cache.load("exp", key) is MISS
        assert cache.stats.quarantined == 0
        assert path.exists()  # stale, not corrupt: left in place

    def test_stats_track_hits_and_stores(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "e" * 64
        cache.store("exp", key, 42)
        assert cache.load("exp", key) == 42
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1


# ---------------------------------------------------------------------------
# CLI: exit codes, faults subcommand, summary causes
# ---------------------------------------------------------------------------

def _outcome(ok: bool, code: int) -> ExperimentOutcome:
    return ExperimentOutcome(name="x", ok=ok, wall_seconds=0.0, exit_code=code)


class TestAggregateExitCode:
    def test_all_ok(self):
        assert aggregate_exit_code([_outcome(True, EXIT_OK)]) == EXIT_OK

    def test_single_failure_keeps_its_code(self):
        outcomes = [_outcome(True, EXIT_OK), _outcome(False, EXIT_TIMEOUT)]
        assert aggregate_exit_code(outcomes) == EXIT_TIMEOUT

    def test_mixed_failures_collapse_to_generic(self):
        outcomes = [_outcome(False, EXIT_TIMEOUT), _outcome(False, EXIT_CRASH)]
        assert aggregate_exit_code(outcomes) == EXIT_FAILURE

    def test_partial_only_surfaces_when_nothing_failed(self):
        outcomes = [_outcome(True, EXIT_PARTIAL), _outcome(True, EXIT_OK)]
        assert aggregate_exit_code(outcomes) == EXIT_PARTIAL
        outcomes.append(_outcome(False, EXIT_CRASH))
        assert aggregate_exit_code(outcomes) == EXIT_CRASH


class _FakeResult:
    def __init__(self, values):
        self.values = values

    def format_rows(self):
        return [f"  fake: {self.values}"]


def _fake_definition(shard_fn, **params) -> ExperimentDef:
    def run(config, runner, **params):
        spec = TrialSpec(
            "fake-chaos", n_trials=3, trials_per_shard=1, params=params
        )
        return runner.run(spec, config, shard_fn, _FakeResult)

    return ExperimentDef("synthetic chaos target", params=params, run=run, sharded=True)


class TestCliExitCodes:
    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "moderate" in out and "heavy" in out

    def test_faults_without_list_is_usage_error(self, capsys):
        assert main(["faults"]) == EXIT_USAGE

    def test_unknown_experiment_is_usage_error(self, capsys):
        assert main(["definitely-not-an-experiment"]) == EXIT_USAGE

    def test_unknown_fault_profile_rejected(self, capsys):
        assert main(["fig5", "--faults", "nope", "--no-cache"]) == EXIT_USAGE
        assert "unknown fault profile" in capsys.readouterr().err

    def test_malformed_fault_scale_rejected(self, capsys):
        assert main(["fig5", "--faults", "drift@zoom", "--no-cache"]) == EXIT_USAGE
        assert "malformed fault scale" in capsys.readouterr().err

    def test_negative_fault_scale_rejected(self, capsys):
        assert main(["fig5", "--faults", "light@-1", "--no-cache"]) == EXIT_USAGE
        assert "scale" in capsys.readouterr().err

    def test_partial_run_exits_partial(self, monkeypatch, capsys):
        monkeypatch.setitem(
            EXPERIMENTS, "fake-chaos", _fake_definition(_crash_at_shard, crash=[1])
        )
        code = main(
            ["fake-chaos", "--jobs", "2", "--max-failed-shards", "1", "--no-cache"]
        )
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "PARTIAL" in out
        assert "shard 1 crash" in out

    def test_crashing_run_exits_crash(self, monkeypatch, capsys):
        monkeypatch.setitem(
            EXPERIMENTS, "fake-chaos", _fake_definition(_crash_at_shard, crash=[1])
        )
        assert main(["fake-chaos", "--jobs", "2", "--no-cache"]) == EXIT_CRASH

    def test_hanging_run_exits_timeout(self, monkeypatch, capsys):
        monkeypatch.setitem(
            EXPERIMENTS, "fake-chaos", _fake_definition(_hang_at_shard, hang=[0])
        )
        code = main(
            [
                "fake-chaos",
                "--jobs",
                "2",
                "--shard-timeout",
                "0.25",
                "--no-cache",
            ]
        )
        assert code == EXIT_TIMEOUT

    def test_raising_run_exits_bad_result(self, monkeypatch, capsys):
        monkeypatch.setitem(
            EXPERIMENTS,
            "fake-chaos",
            _fake_definition(_raise_at_shard, **{"raise": [0]}),
        )
        assert main(["fake-chaos", "--no-cache"]) == EXIT_BAD_RESULT

    def test_fail_fast_flag_reaches_the_executor(self, monkeypatch, capsys):
        monkeypatch.setitem(
            EXPERIMENTS, "fake-chaos", _fake_definition(_crash_at_shard, crash=[0])
        )
        code = main(
            [
                "fake-chaos",
                "--jobs",
                "2",
                "--max-failed-shards",
                "3",
                "--fail-fast",
                "--no-cache",
            ]
        )
        assert code == EXIT_CRASH
