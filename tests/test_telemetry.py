"""Telemetry: tracer/metrics units, trace schema, zero-overhead guarantee.

The contract under test is twofold: with telemetry installed, a run
exports a schema-valid Chrome ``trace_event`` file containing the whole
pipeline (prime, probe, dma-fill, driver-refill) and mergeable metrics;
with telemetry absent (the default), results are bit-identical to the
pre-telemetry instruction stream.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.core.config import MachineConfig
from repro.core.events import EventQueue
from repro.experiments.mapping import run_fig5, run_fig6
from repro.telemetry import (
    PROBE_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
    ShardTelemetryPayload,
    Telemetry,
    TelemetrizedShardFn,
    Tracer,
    current_telemetry,
    merge_shard_payloads,
    session,
)

VALID_PHASES = {"X", "i", "C", "M"}


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", args={"k": 1}):
            pass
        (event,) = tracer.events
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"k": 1}
        assert {"ts", "pid", "tid", "cat"} <= set(event)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work"):
            pass
        tracer.instant("point")
        tracer.counter("count", 3)
        assert tracer.events == []
        # the disabled span is a shared singleton — no per-call allocation
        assert tracer.span("a") is tracer.span("b")

    def test_instant_and_counter_shapes(self):
        tracer = Tracer()
        tracer.instant("point", args={"line": 7})
        tracer.counter("misses", {"misses": 4})
        tracer.counter("scalar", 2.5)
        instant, counter, scalar = tracer.events
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert counter["ph"] == "C" and counter["args"] == {"misses": 4}
        assert scalar["args"] == {"value": 2.5}

    def test_max_events_drops_and_counts(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.instant("x")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert tracer.chrome_trace()["otherData"]["dropped_events"] == 3

    def test_absorb_rewrites_pid_as_shard_track(self):
        parent = Tracer()
        worker = Tracer()
        worker.instant("from-worker")
        parent.absorb(worker.events, pid=104)
        assert parent.events[-1]["pid"] == 104
        trace = parent.chrome_trace()
        names = {
            e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
        }
        assert "shard-104" in names

    def test_write_chrome_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        path = tmp_path / "t.json"
        assert tracer.write_chrome(str(path)) == 1
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert any(e["name"] == "s" for e in loaded["traceEvents"])

    def test_write_jsonl_one_object_per_line(self, tmp_path):
        tracer = Tracer()
        tracer.instant("a")
        tracer.instant("b")
        path = tmp_path / "t.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        registry.gauge("depth").set(7.5)
        registry.histogram("lat").observe(40)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 5
        assert snap["gauges"]["depth"] == 7.5
        assert snap["histograms"]["lat"]["count"] == 1

    def test_histogram_bucket_placement(self):
        hist = Histogram(buckets=(10, 20))
        for v in (5, 10, 15, 99):
            hist.observe(v)
        assert hist.counts == [2, 1, 1]  # <=10, <=20, overflow
        assert hist.min == 5 and hist.max == 99
        assert hist.mean == pytest.approx((5 + 10 + 15 + 99) / 4)

    @pytest.mark.parametrize(
        "values",
        [[70.0, 70.0, 70.0], [0.1, 44.7, 3.3, 1e6], [12.5, 260.0]],
    )
    def test_observe_many_repeat_equals_separate_calls(self, values):
        repeated, separate = Histogram(), Histogram()
        for hist in (repeated, separate):
            hist.observe(0.3)  # a fractional running sum before the batch
        repeated.observe_many(values, repeat=37)
        for _ in range(37):
            separate.observe_many(values)
        assert repeated.to_dict() == separate.to_dict()
        assert repeated.sum == separate.sum  # bit-equal, not approximately

    def test_histogram_merge_requires_same_buckets(self):
        a, b = Histogram(buckets=(10, 20)), Histogram(buckets=(10, 20))
        a.observe(5)
        b.observe(99)
        a.merge_dict(b.to_dict())
        assert a.count == 2 and a.counts == [1, 0, 1]
        with pytest.raises(ValueError):
            a.merge_dict(Histogram(buckets=(1, 2)).to_dict())

    def test_merge_snapshot_folds_worker_state(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("n").inc(2)
        worker.counter("n").inc(3)
        worker.histogram("lat").observe(42)
        parent.merge_snapshot(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["n"] == 5
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["histograms"]["lat"]["buckets"] == list(PROBE_LATENCY_BUCKETS)

    def test_phase_deltas(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(10)
        with registry.phase("windowed"):
            registry.counter("n").inc(7)
            registry.histogram("lat").observe(1)
        assert registry.phases["windowed"] == {"n": 7, "lat.observations": 1}
        # repeated phases accumulate
        with registry.phase("windowed"):
            registry.counter("n").inc(1)
        assert registry.phases["windowed"]["n"] == 8

    def test_end_phase_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            MetricsRegistry().end_phase()


class TestPhaseTimer:
    def test_accumulates_named_phases(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert set(timer.seconds) == {"a", "b"}
        assert timer.seconds["a"] >= 0

    def test_emits_runner_spans_when_traced(self):
        tracer = Tracer()
        timer = PhaseTimer(tracer=tracer, span_prefix="runner:x:")
        with timer.phase("plan"):
            pass
        assert tracer.span_names() == {"runner:x:plan"}


class TestAmbientSession:
    def test_nothing_installed_by_default(self):
        assert current_telemetry() is None

    def test_session_installs_and_restores(self):
        telemetry = Telemetry.create()
        with session(telemetry) as t:
            assert t is telemetry
            assert current_telemetry() is telemetry
        assert current_telemetry() is None

    def test_sessions_nest(self):
        outer, inner = Telemetry.create(), Telemetry.create()
        with session(outer):
            with session(inner):
                assert current_telemetry() is inner
            assert current_telemetry() is outer


class TestShardTelemetry:
    def test_parent_process_passthrough(self):
        fn = TelemetrizedShardFn(
            lambda cfg, params, shard: "result", trace=True, metrics=True,
            max_events=100,
        )
        payload = fn(None, {}, None)
        assert payload.result == "result"
        assert payload.trace_events is None  # parent's ambient records directly

    def test_merge_folds_into_ambient(self):
        worker = Tracer()
        worker.instant("w")
        payloads = [
            ShardTelemetryPayload(
                result=1,
                trace_events=list(worker.events),
                metrics_snapshot={"counters": {"n": 3}},
            ),
            ShardTelemetryPayload(result=2),
        ]
        telemetry = Telemetry.create()
        with session(telemetry):
            assert merge_shard_payloads(payloads) == [1, 2]
        assert telemetry.metrics.snapshot()["counters"]["n"] == 3
        assert telemetry.tracer.events[0]["pid"] == 100

    def test_merge_without_ambient_returns_results(self):
        payloads = [ShardTelemetryPayload(result="r")]
        assert merge_shard_payloads(payloads) == ["r"]


class TestEventQueueTombstones:
    def test_cancel_is_idempotent_and_postfire_noop(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1, lambda: fired.append(1))
        q.run_due(1)
        assert len(q) == 0
        ev.cancel()  # after firing: must not corrupt the live count
        ev.cancel()
        assert len(q) == 0 and fired == [1]

    def test_mass_cancel_compacts_heap(self):
        q = EventQueue()
        events = [q.schedule(t + 1, lambda: None) for t in range(200)]
        assert q.heap_size == 200
        for ev in events[:150]:
            ev.cancel()
        # eager compaction keeps tombstones from ever outnumbering live
        # entries on a big heap (it fires mid-way, so the bound is 2x live)
        assert len(q) == 50
        assert q.heap_size < 200
        assert q.heap_size <= 2 * len(q)

    def test_tombstones_dropped_lazily_on_pop(self):
        q = EventQueue()
        fired = []
        keep = q.schedule(5, lambda: fired.append("keep"))
        for t in (1, 2, 3):
            q.schedule(t, lambda: fired.append("cancelled")).cancel()
        assert len(q) == 1
        assert q.run_due(10) == 1
        assert fired == ["keep"]
        assert q.heap_size == 0

    def test_clear_detaches_events(self):
        q = EventQueue()
        ev = q.schedule(1, lambda: None)
        q.clear()
        ev.cancel()  # must not go negative through a dangling backref
        assert len(q) == 0


def _trace_fig5(config):
    telemetry = Telemetry.create(trace=True, metrics=True)
    with session(telemetry):
        result = run_fig5(config)
    return result, telemetry


class TestTraceSchema:
    """Golden-schema test: a tiny fixed-seed run exports a valid trace."""

    @pytest.fixture(scope="class")
    def traced(self):
        return _trace_fig5(MachineConfig().scaled_down())

    def test_every_event_is_schema_valid(self, traced):
        _, telemetry = traced
        trace = telemetry.tracer.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"], "trace must not be empty"
        for event in trace["traceEvents"]:
            assert event["ph"] in VALID_PHASES
            assert {"name", "ph", "ts", "pid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0 and "tid" in event
            if event["ph"] == "C":
                assert isinstance(event["args"], dict)

    def test_trace_covers_the_whole_pipeline(self, traced):
        _, telemetry = traced
        names = telemetry.tracer.span_names()
        assert {"prime", "probe", "dma-fill", "driver-refill"} <= names

    def test_trace_is_valid_json_on_disk(self, traced, tmp_path):
        _, telemetry = traced
        path = tmp_path / "fig5.trace.json"
        n = telemetry.tracer.write_chrome(str(path))
        assert n == len(telemetry.tracer.events)
        json.loads(path.read_text())  # must parse

    def test_probe_latency_histogram_collected(self, traced):
        _, telemetry = traced
        snap = telemetry.metrics.snapshot()
        hist = snap["histograms"]["probe.latency_cycles"]
        assert hist["count"] > 0
        assert hist["buckets"] == list(PROBE_LATENCY_BUCKETS)
        assert snap["counters"]["probe.accesses"] >= hist["count"]


class TestZeroOverheadIdentity:
    """Telemetry off (the default) must not perturb any result bit."""

    def test_fig5_bit_identical_with_and_without(self):
        config = MachineConfig().scaled_down()
        plain = run_fig5(config)
        traced, _ = _trace_fig5(config)
        again = run_fig5(config)
        assert plain.counts == traced.counts == again.counts
        assert plain.n_buffers == traced.n_buffers

    def test_fig6_bit_identical_with_and_without(self):
        config = MachineConfig().scaled_down()
        plain = run_fig6(instances=6, config=config)
        with session(Telemetry.create(trace=True, metrics=True)):
            traced = run_fig6(instances=6, config=config)
        assert plain.histogram == traced.histogram


class TestCliTelemetryFlags:
    @pytest.fixture
    def cache_dir(self, tmp_path):
        return str(tmp_path / "cache")

    def test_trace_and_metrics_flags_write_files(self, tmp_path, capsys, cache_dir):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert (
            cli.main(
                [
                    "fig5",
                    "--trace", str(trace),
                    "--metrics", str(metrics),
                    "--cache-dir", cache_dir,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[telemetry] wrote" in out
        loaded = json.loads(trace.read_text())
        names = {e["name"] for e in loaded["traceEvents"]}
        assert {"prime", "probe", "dma-fill", "driver-refill"} <= names
        snapshot = json.loads(metrics.read_text())
        assert snapshot["runner"][0]["experiment"] == "fig5"
        assert "phase_seconds" in snapshot["runner"][0]
        # every histogram snapshot carries interpolated percentiles, and
        # the CLI prints them as a summary table
        for hist in snapshot["metrics"]["histograms"].values():
            assert {"p50", "p95", "p99"} <= set(hist["percentiles"])
        assert "p95" in out
        assert "probe.latency_cycles" in out

    def test_trace_subcommand_defaults_output_path(
        self, tmp_path, monkeypatch, capsys, cache_dir
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["trace", "fig5", "--cache-dir", cache_dir]) == 0
        assert (tmp_path / "fig5.trace.json").exists()

    def test_trace_forces_reexecution_past_warm_cache(
        self, tmp_path, capsys, cache_dir
    ):
        assert cli.main(["fig5", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        trace = tmp_path / "t.json"
        assert cli.main(
            ["fig5", "--trace", str(trace), "--cache-dir", cache_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "[cache]" not in out  # no hit: the run actually executed
        assert json.loads(trace.read_text())["traceEvents"]

    def test_trace_without_target_rejected(self, cache_dir):
        with pytest.raises(SystemExit):
            cli.main(["trace"])

    def test_stray_positional_rejected(self, cache_dir):
        with pytest.raises(SystemExit):
            cli.main(["fig5", "fig6", "--cache-dir", cache_dir])

    def test_sharded_trace_merges_worker_tracks(self, tmp_path, capsys, cache_dir):
        trace = tmp_path / "t.json"
        assert (
            cli.main(
                [
                    "fig6",
                    "--jobs", "2",
                    "--trace", str(trace),
                    "--cache-dir", cache_dir,
                ]
            )
            == 0
        )
        loaded = json.loads(trace.read_text())
        pids = {e["pid"] for e in loaded["traceEvents"]}
        assert any(pid >= 100 for pid in pids), "expected per-shard tracks"
