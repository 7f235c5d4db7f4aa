"""The benchmark's own checks: tracing changes nothing, wrappers come off,
runs leave no cache or ledger behind, and BENCHMARK.json matches run.py.

    python3 -m pytest perfbench/tests -q

Each workload is exercised through a shrunken subclass (fewer samples,
shorter loads, fewer steps) so the suite takes seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import run, workloads  # noqa: E402
from perfbench.speed import SpeedClock  # noqa: E402
from perfbench.tracing import PROBES, Probe, SpanTracer, resolve  # noqa: E402


class TinyChase(workloads.Chase):
    name = "tiny-chase"
    frames = 8
    classify_rounds = 1
    steps_per_pass = 12
    trace_steps = 12


class TinyScan(workloads.Scan):
    name = "tiny-scan"
    n_samples = 20
    steps_per_pass = 3
    trace_steps = 3


class TinyScanKeyed(workloads.ScanKeyed):
    name = "tiny-scan-keyed"
    n_samples = 20
    steps_per_pass = 2
    trace_steps = 2


class TinyNginx(workloads.Nginx):
    name = "tiny-nginx"
    ops_per_step = 4
    steps_per_pass = 10
    trace_steps = 10


TINY = [TinyChase(), TinyScan(), TinyScanKeyed(), TinyNginx()]


def originals():
    attrs = {}
    for probe in PROBES:
        owner, attr = resolve(probe.target)
        attrs[probe.target] = vars(owner)[attr]
    return attrs


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_digests_equal_untraced(workload):
    inputs = workload.inputs(3)
    clock = SpeedClock()
    plain = run.run_steps(
        workload, workload.setup(inputs), inputs, workload.trace_steps, clock
    )
    with SpanTracer() as tracer:
        traced = run.run_steps(
            workload, workload.setup(inputs), inputs, workload.trace_steps, clock
        )
    assert not plain.problems and not traced.problems
    assert traced.digests == plain.digests
    assert tracer.n_spans > 0


def test_inputs_follow_the_seed():
    for workload in TINY:
        assert repr(workload.inputs(5)) == repr(workload.inputs(5))
        assert repr(workload.inputs(5)) != repr(workload.inputs(6))


def test_wrappers_restored_after_run_and_after_error():
    before = originals()
    workload = TinyScan()
    inputs = workload.inputs(1)
    with SpanTracer():
        assert originals() != before
        run.run_steps(workload, workload.setup(inputs), inputs, 1, SpeedClock())
    assert originals() == before
    with pytest.raises(RuntimeError):
        with SpanTracer():
            raise RuntimeError("boom")
    assert originals() == before


def test_self_time_subtracts_children():
    tracer = SpanTracer(())
    inner = tracer._span_wrapper(lambda: time.sleep(0.01), Probe("", "inner"))

    def outer():
        time.sleep(0.02)
        inner()

    tracer._span_wrapper(outer, Probe("", "outer"))()
    calls, self_s, covered = tracer.summary()
    assert calls == {"inner": 1, "outer": 1}
    assert 0.015 < self_s["outer"] < 0.03
    assert 0.008 < self_s["inner"] < 0.02
    assert covered == pytest.approx(self_s["outer"] + self_s["inner"])


def test_timed_and_traced_runs_write_no_cache_or_ledger(tmp_path, monkeypatch, capsys):
    def snapshot():
        return {
            p for p in ROOT.rglob("*")
            if "__pycache__" not in p.parts and ".pytest_cache" not in p.parts
        }

    before = snapshot()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-scan", TinyScan())
    for trace in ("0", "1"):
        assert run.main(["--workload", "tiny-scan", "--seed", "2",
                         "--seconds", "0", "--trace", trace]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        wanted = run.PER_LAYER if trace == "1" else run.END_TO_END
        assert list(result["metrics"]) == [name for name, _ in wanted]
    assert list(tmp_path.rglob("*")) == []
    assert snapshot() == before


def test_benchmark_json_matches_run_py():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
