"""Unit tests for the adaptive attack runtime.

Covers the time-varying fault schedules (shape lookup, scaling semantics,
spec parsing), online recalibration (CalibrationResult retry accounting
incl. the give-up path), the AdaptiveSupervisor's detectors / budgets /
hysteresis, the self-healing paths against a re-keying cache backend, and
the end-to-end guarantees: adaptive recovery decisions are bit-identical
at any job count, and a non-adaptive run constructs no adaptive machinery.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.attack.adaptive import (
    AdaptiveConfig,
    AdaptiveStats,
    AdaptiveSupervisor,
)
from repro.attack.timing import CalibrationResult, calibrate_threshold
from repro.core.config import FaultConfig, MachineConfig
from repro.core.machine import Machine
from repro.faults import (
    FAULT_SCHEDULES,
    FaultSchedule,
    get_profile,
    get_schedule,
    parse_fault_spec,
)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

class TestFaultSchedule:
    def test_registry_names_match(self):
        for name, sched in FAULT_SCHEDULES.items():
            assert sched.name == name

    def test_ramp_interpolates(self):
        sched = FaultSchedule("r", "", points=((1.0, 1.0), (3.0, 3.0)))
        assert sched.scale_at(0.002) == pytest.approx(2.0)

    def test_boundaries_hold(self):
        sched = FaultSchedule("r", "", points=((1.0, 1.0), (3.0, 3.0)))
        assert sched.scale_at(0.0) == 1.0
        assert sched.scale_at(0.010) == 3.0

    def test_step_holds_previous(self):
        sched = FaultSchedule(
            "s", "", points=((0.0, 0.5), (1.0, 2.0)), mode="step"
        )
        assert sched.scale_at(0.0009) == 0.5
        assert sched.scale_at(0.0011) == 2.0

    def test_periodic_wraps(self):
        sched = FAULT_SCHEDULES["burst"]
        period = sched.period_ms / 1e3
        for t in (0.0001, 0.0005, 0.0011):
            assert sched.scale_at(t) == sched.scale_at(t + period)
        assert sched.scale_at(0.0001) == 2.5  # inside the burst
        assert sched.scale_at(0.0005) == 0.0  # after it

    def test_max_scale(self):
        for sched in FAULT_SCHEDULES.values():
            assert sched.max_scale() == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule("x", "", points=())
        with pytest.raises(ValueError):
            FaultSchedule("x", "", points=((2.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            FaultSchedule("x", "", points=((0.0, -1.0),))
        with pytest.raises(ValueError):
            FaultSchedule("x", "", points=((0.0, 1.0),), mode="sine")
        with pytest.raises(ValueError):
            FaultSchedule("x", "", points=((0.0, 1.0),), period_ms=-1.0)

    def test_unknown_schedule_lists_names(self):
        with pytest.raises(ValueError, match="drift"):
            get_schedule("chaos")

    def test_drift_profile_stays_separable(self):
        # The recalibrated midpoint threshold only separates hit/miss
        # jitter distributions while the scaled probe-jitter cap stays
        # under the 160-cycle hit/miss latency gap; the built-in drift
        # profile is designed to stay recoverable.
        profile = get_profile("drift")
        sched = get_schedule(profile.schedule)
        assert profile.probe_jitter_cycles * sched.max_scale() < 160


class TestParseFaultSpec:
    def test_plain_profile(self):
        assert parse_fault_spec("moderate") == get_profile("moderate")

    def test_scaled_profile(self):
        spec = parse_fault_spec("light@2")
        assert spec == get_profile("light").scaled(2.0)
        assert spec.drop_prob == pytest.approx(0.02)

    def test_scale_preserves_schedule(self):
        assert parse_fault_spec("drift@1.5").schedule == "drift"

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            parse_fault_spec("nope@2")

    def test_malformed_scale(self):
        with pytest.raises(ValueError, match="malformed fault scale"):
            parse_fault_spec("light@fast")

    def test_out_of_range_scale(self):
        with pytest.raises(ValueError, match="finite"):
            parse_fault_spec("light@-1")
        with pytest.raises(ValueError, match="finite"):
            parse_fault_spec("light@inf")


class TestScheduledPlan:
    def _machine(self, schedule: str) -> Machine:
        faults = replace(get_profile("light"), schedule=schedule)
        return Machine(replace(MachineConfig().scaled_down(), faults=faults))

    def test_schedule_requires_clock(self):
        from repro.faults import FaultPlan

        with pytest.raises(ValueError, match="clock"):
            FaultPlan(replace(get_profile("light"), schedule="drift"), root_seed=1)

    def test_unknown_schedule_rejected_at_machine_build(self):
        with pytest.raises(ValueError, match="unknown fault schedule"):
            self._machine("zigzag")

    def test_scale_follows_sim_time(self):
        machine = self._machine("step")
        plan = machine.faults
        assert plan.schedule_scale() == 0.0
        machine.idle(2_000_000)  # well past the 0.7 ms step
        if machine.clock.seconds(machine.clock.now) < 0.0008:
            machine.idle(10_000_000)
        assert plan.schedule_scale() == 2.5

    def test_scheduleless_plan_scale_is_constant(self):
        machine = Machine(
            replace(MachineConfig().scaled_down(), faults=get_profile("light"))
        )
        assert machine.faults.schedule_scale() == 1.0
        machine.idle(5_000_000)
        assert machine.faults.schedule_scale() == 1.0

    def test_schedule_field_in_config_hash(self):
        base = MachineConfig().scaled_down()
        with_sched = replace(
            base, faults=replace(get_profile("light"), schedule="drift")
        )
        without = replace(base, faults=get_profile("light"))
        assert with_sched.config_hash() != without.config_hash()


# ---------------------------------------------------------------------------
# calibration retry accounting
# ---------------------------------------------------------------------------

class _FakeGeometry:
    line_size = 64


class _FakeLLC:
    geometry = _FakeGeometry()


class _FakeClock:
    now = 0


class _FakePhysmem:
    page_size = 4096


class _FakeMachine:
    llc = _FakeLLC()
    physmem = _FakePhysmem()
    clock = _FakeClock()
    telemetry = None


class _ScriptedProcess:
    """Feeds scripted (hit, miss) latency pairs to calibrate_threshold."""

    def __init__(self, passes: list[tuple[int, int]]) -> None:
        #: One (hit_latency, miss_latency) pair per calibration pass; the
        #: final entry repeats if more passes are attempted.
        self.passes = passes
        self.timed_calls = 0
        self.machine = _FakeMachine()

    def mmap(self, pages: int) -> int:
        return 0

    def access(self, vaddr: int) -> None:
        pass

    def flush(self, vaddr: int) -> None:
        pass

    def timed_access(self, vaddr: int) -> int:
        # calibrate_threshold alternates hit, miss measurements; passes
        # are delimited by sample-count doubling (64, then 128, ...).
        call = self.timed_calls
        self.timed_calls += 1
        boundary, index = 0, 0
        for index, _pair in enumerate(self.passes):
            boundary += 2 * 64 * (2**index)
            if call < boundary:
                break
        hit, miss = self.passes[min(index, len(self.passes) - 1)]
        return hit if call % 2 == 0 else miss


class TestCalibrationResult:
    def test_first_pass_success(self):
        result = calibrate_threshold(_ScriptedProcess([(100, 260)]))
        assert isinstance(result, CalibrationResult)
        assert result.attempts == 1
        assert result.samples_used == 64
        assert result.separation == pytest.approx(160.0)
        assert result.threshold == pytest.approx(180.0)

    def test_retry_until_separable(self):
        # First pass inverted (hit slower than miss: hopeless noise),
        # second pass clean: the calibration retries with doubled samples.
        result = calibrate_threshold(_ScriptedProcess([(260, 100), (100, 260)]))
        assert result.attempts == 2
        assert result.samples_used == 128
        assert result.separation == pytest.approx(160.0)

    def test_give_up_after_max_attempts(self):
        with pytest.raises(RuntimeError, match="calibration failed after 3"):
            calibrate_threshold(_ScriptedProcess([(200, 200)]))

    def test_result_is_a_latency_threshold(self):
        from repro.attack.timing import LatencyThreshold

        result = calibrate_threshold(_ScriptedProcess([(100, 260)]))
        assert isinstance(result, LatencyThreshold)
        assert result.is_miss(int(result.threshold) + 1)
        assert not result.is_miss(int(result.threshold) - 1)

    def test_on_machine_first_pass(self):
        machine = Machine(MachineConfig().scaled_down())
        result = calibrate_threshold(machine.new_process("spy"))
        assert result.attempts == 1
        assert result.separation > 0


# ---------------------------------------------------------------------------
# supervisor detectors / budgets / hysteresis
# ---------------------------------------------------------------------------

def _supervisor(monkeypatch=None, healer=None, **overrides) -> AdaptiveSupervisor:
    defaults = dict(detect_patience=3, idle_patience=5, cooldown_sweeps=4)
    defaults.update(overrides)
    process = _ScriptedProcess([(100, 260)])
    sup = AdaptiveSupervisor(
        process, config=AdaptiveConfig(**defaults), healer=healer
    )
    return sup


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        AdaptiveConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(saturation_fraction=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(saturation_fraction=1.5)
        with pytest.raises(ValueError):
            AdaptiveConfig(detect_patience=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(cooldown_sweeps=-1)


class TestSupervisorDetectors:
    def test_saturation_triggers_recalibration(self):
        sup = _supervisor()
        events = [sup.observe(3, 3) for _ in range(10)]
        fired = [e for e in events if e is not None]
        assert fired and fired[0].kind == "recalibrate"
        # Saturation persists, so after each cooldown the supervisor
        # detects and recalibrates again — at least once, never thrashing.
        assert sup.stats.saturation_detections >= 1
        assert 1 <= sup.stats.recalibrations <= 2
        assert sup.threshold is not None
        assert sup.threshold.threshold == pytest.approx(180.0)

    def test_recalibration_pushes_threshold_to_tracked_sets(self):
        class _Set:
            threshold = None

        sup = _supervisor()
        tracked = [_Set(), _Set()]
        sup.track(*tracked)
        for _ in range(10):
            sup.observe(3, 3)
        for es in tracked:
            assert es.threshold is sup.threshold

    def test_mixed_activity_resets_streaks(self):
        sup = _supervisor()
        for fired in (3, 3, 1, 3, 3, 0, 3, 3):
            assert sup.observe(fired, 3) is None
        assert sup.stats.recalibrations == 0

    def test_idle_triggers_heal(self):
        healed = []
        sup = _supervisor(healer=lambda: healed.append(1) or ["new"])
        events = [sup.observe(0, 3) for _ in range(10)]
        fired = [e for e in events if e is not None]
        assert fired and fired[0].kind == "heal"
        assert fired[0].payload == ["new"]
        assert sup.stats.idle_detections >= 1
        assert sup.stats.heals >= 1
        assert healed

    def test_heal_without_healer_is_a_noop(self):
        sup = _supervisor()
        assert all(sup.observe(0, 3) is None for _ in range(20))
        assert sup.stats.heals == 0

    def test_cooldown_spaces_recoveries(self):
        sup = _supervisor(cooldown_sweeps=50)
        events = [sup.observe(3, 3) for _ in range(30)]
        assert sum(e is not None for e in events) == 1

    def test_recalibration_budget_escalates_to_heal(self):
        healed = []
        sup = _supervisor(
            healer=lambda: healed.append(1) or ["new"],
            max_recalibrations=1,
            cooldown_sweeps=0,
        )
        kinds = [e.kind for e in (sup.observe(3, 3) for _ in range(8)) if e]
        assert kinds[0] == "recalibrate"
        assert "heal" in kinds[1:]

    def test_heal_budget_exhausts(self):
        sup = _supervisor(
            healer=lambda: ["new"], max_heals=2, cooldown_sweeps=0
        )
        for _ in range(40):
            sup.observe(0, 3)
        assert sup.stats.heals == 2

    def test_healer_failure_counts(self):
        def broken():
            raise RuntimeError("mapping gone")

        sup = _supervisor(healer=broken)
        events = [e for e in (sup.observe(0, 3) for _ in range(10)) if e]
        assert events and events[0].kind == "heal_failed"
        assert sup.stats.heal_failures >= 1
        assert sup.stats.heals == 0

    def test_empty_sweep_total_ignored(self):
        sup = _supervisor()
        assert sup.observe(0, 0) is None

    def test_confidence_tracks_degraded_sweeps(self):
        sup = _supervisor()
        assert sup.confidence == 1.0
        sup.observe(1, 3)
        sup.observe(3, 3)
        assert sup.confidence == pytest.approx(0.5)

    def test_history_summarizes_events(self):
        sup = _supervisor()
        for _ in range(10):
            sup.observe(3, 3)
        history = sup.history()
        assert history and history[0][1] == "recalibrate"
        assert all(len(entry) == 3 for entry in history)


class TestChaseHooks:
    def test_timeout_patience_then_heal(self):
        sup = _supervisor(
            healer=lambda: ["rebuilt"], chase_timeout_patience=3, cooldown_sweeps=0
        )
        assert sup.note_timeout() is None
        assert sup.note_timeout() is None
        event = sup.note_timeout()
        assert event is not None and event.kind == "heal"
        assert sup.stats.chase_resyncs == 1

    def test_hit_resets_timeout_streak(self):
        sup = _supervisor(
            healer=lambda: ["rebuilt"], chase_timeout_patience=2, cooldown_sweeps=0
        )
        for _ in range(6):
            assert sup.note_timeout() is None
            sup.note_hit()
        assert sup.stats.chase_resyncs == 0

    def test_sequence_sync_loss_counted(self):
        sup = _supervisor()
        sup.note_sequence_sync_loss()
        assert sup.stats.sequence_sync_losses == 1


class TestProbeMonitorRecovery:
    def test_recalibration_renews_quality_margins(self):
        """After an in-flight recalibration, margins are measured against
        the new threshold; the sweeps before it keep the old one."""
        from repro.attack.evictionset import OracleEvictionSetBuilder
        from repro.attack.primeprobe import ProbeMonitor
        from repro.attack.timing import LatencyThreshold
        from repro.telemetry import Telemetry

        telemetry = Telemetry.create(trace=False, metrics=True)
        machine = Machine(MachineConfig().scaled_down(), telemetry=telemetry)
        spy = machine.new_process("spy")
        hit = calibrate_threshold(spy).hit_mean
        # A threshold below the hit latency: every access reads as a miss,
        # so the supervisor sees saturation and recalibrates.
        stale = LatencyThreshold(hit_mean=hit, miss_mean=hit, threshold=hit - 20)
        builder = OracleEvictionSetBuilder(spy, stale, huge_pages=4)
        sets = builder.build_page_aligned_groups()[:4]
        supervisor = AdaptiveSupervisor(
            spy, config=AdaptiveConfig(detect_patience=2)
        )
        monitor = ProbeMonitor(spy, sets, supervisor=supervisor)

        def margins():
            hist = telemetry.metrics.snapshot()["histograms"]
            return hist["quality.probe.margin_cycles"]

        monitor.sample(6)
        assert supervisor.stats.recalibrations == 1
        fresh = abs(hit - supervisor.threshold.threshold)
        assert fresh != 20
        # Two saturated sweeps against the stale threshold, four after.
        assert margins()["sum"] == 2 * 4 * 20 + 4 * 4 * fresh
        before = margins()
        monitor.probe_once()
        after = margins()
        assert after["count"] - before["count"] == 4
        assert after["sum"] - before["sum"] == 4 * fresh


class TestAdaptiveStats:
    def test_total_and_dict_cover_all_fields(self):
        stats = AdaptiveStats(recalibrations=2, heals=1)
        assert stats.total() == 3
        assert stats.to_dict()["recalibrations"] == 2
        assert set(stats.to_dict()) >= {
            "recalibrations",
            "heals",
            "saturation_detections",
            "idle_detections",
            "chase_resyncs",
            "sequence_sync_losses",
        }


# ---------------------------------------------------------------------------
# end-to-end: self-healing against a re-keying backend
# ---------------------------------------------------------------------------

def _covert_run(adaptive: bool, backend: str = "keyed:epoch=6000"):
    from repro.analysis.lfsr import lfsr_symbols
    from repro.attack.covert import CovertReceiver, CovertTrojan, run_covert_channel
    from repro.attack.setup import (
        MonitorFactory,
        adaptive_covert_supervisor,
        unique_buffer_positions,
    )

    faults = replace(get_profile("drift"), schedule="step")
    cfg = replace(
        MachineConfig().scaled_down(),
        faults=faults,
        cache_backend=backend,
        adaptive=adaptive,
    )
    machine = Machine(cfg)
    machine.install_nic()
    spy = machine.new_process("spy")
    factory = MonitorFactory(machine, spy, calibrate_threshold(spy), huge_pages=4)
    position = unique_buffer_positions(machine)[0]
    supervisor = (
        adaptive_covert_supervisor(factory, [position]) if adaptive else None
    )
    receiver = CovertReceiver(
        spy, [factory.stream_monitors(position)], supervisor=supervisor
    )
    trojan = CovertTrojan(
        alphabet=3, ring_size=len(machine.ring.buffers), rate_pps=400_000
    )
    symbols = lfsr_symbols(24, 3)
    report = run_covert_channel(machine, receiver, trojan, symbols, 30_000)
    return report, supervisor, machine


class TestSelfHealingEndToEnd:
    def test_keyed_rekey_heals_and_recovers(self):
        report, supervisor, machine = _covert_run(adaptive=True)
        assert machine.llc.mapping_epoch > 0  # the backend did re-key
        assert supervisor.stats.heals > 0
        assert supervisor.stats.recalibrations > 0
        baseline, _, _ = _covert_run(adaptive=False)
        assert report.error_rate <= baseline.error_rate

    def test_healed_monitors_follow_the_new_mapping(self):
        _report, supervisor, machine = _covert_run(adaptive=True)
        heal_events = [e for e in supervisor.events if e.kind == "heal"]
        assert heal_events
        streams = heal_events[-1].payload
        # The rebuilt monitors must target live cache sets: under the
        # current mapping every stream set re-resolves to a nonempty
        # eviction set (stale sets would have scattered).
        for stream in streams:
            for es in stream.sets():
                assert len(es.addrs) > 0

    def test_nonadaptive_run_constructs_no_supervisor(self):
        report, supervisor, _machine = _covert_run(adaptive=False)
        assert supervisor is None
        assert report.symbols_sent == 24


# ---------------------------------------------------------------------------
# drift-resilience experiment determinism
# ---------------------------------------------------------------------------

def _cells_fingerprint(result) -> list:
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


class TestDriftResilience:
    def test_jobs_invariance(self):
        from repro.experiments import run_drift_resilience
        from repro.runner import ExperimentRunner

        fingerprints = []
        for jobs in (1, 2):
            result = run_drift_resilience(
                backends=("keyed:epoch=6000",),
                runner=ExperimentRunner(jobs=jobs, use_cache=False),
            )
            fingerprints.append(_cells_fingerprint(result))
        assert fingerprints[0] == fingerprints[1]

    def test_adaptive_never_loses_and_wins_somewhere(self):
        from repro.experiments import run_drift_resilience
        from repro.runner import ExperimentRunner

        result = run_drift_resilience(
            runner=ExperimentRunner(jobs=1, use_cache=False)
        )
        headline = result.headline_metrics()
        assert headline["adaptive_cell_regressions"] == 0.0
        wins = [
            s
            for s in ("drift", "step", "burst")
            if headline[f"{s}_adaptive_error"] < headline[f"{s}_static_error"]
        ]
        assert wins, f"adaptive strictly better nowhere: {headline}"

    def test_context_metrics_carry_recovery_totals(self):
        from repro.experiments.drift_resilience import (
            DriftCell,
            DriftResilienceResult,
        )

        result = DriftResilienceResult(
            cells=[
                DriftCell(
                    schedule="drift",
                    backend="modulo",
                    adaptive=True,
                    adaptive_totals={"recalibrations": 2, "heals": 1},
                    faults_injected=10,
                ),
            ]
        )
        context = result.context_metrics()
        assert context["adaptive.recalibrations"] == 2.0
        assert context["adaptive.heals"] == 1.0
        assert context["faults.injected"] == 10.0
