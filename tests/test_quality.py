"""Signal-quality estimators and their hook sites.

Two contracts: the pure estimators (SNR, threshold margin, windowed
divergence, edit breakdown, histogram percentiles) compute the documented
quantities; and the hook sites populate ``quality.*`` metrics under an
enabled session while leaving results bit-identical — the recorders only
observe values the hot path already produced.
"""

from __future__ import annotations

import pytest

from repro.analysis.levenshtein import edit_breakdown, levenshtein
from repro.core.config import MachineConfig
from repro.telemetry import Histogram, Telemetry, session
from repro.telemetry.quality import (
    DivergenceReport,
    metric_orientation,
    quality_registry,
    set_hooks_enabled,
    snr,
    threshold_margin,
    windowed_divergence,
)


class TestSnrAndMargin:
    def test_snr_is_gap_over_pooled_spread(self):
        assert snr(40.0, 120.0, 4.0, 4.0) == pytest.approx(20.0)

    def test_snr_pooled_std_floored_at_one_cycle(self):
        # noiseless timing model: zero spread must not divide by zero
        assert snr(40.0, 120.0, 0.0, 0.0) == pytest.approx(80.0)

    def test_margin_centred_threshold_is_one(self):
        assert threshold_margin(40.0, 120.0, 80.0) == pytest.approx(1.0)

    def test_margin_touching_a_mean_is_zero(self):
        assert threshold_margin(40.0, 120.0, 40.0) == 0.0

    def test_margin_outside_gap_is_negative(self):
        assert threshold_margin(40.0, 120.0, 20.0) < 0.0

    def test_margin_degenerate_gap_is_zero(self):
        assert threshold_margin(100.0, 100.0, 100.0) == 0.0


class TestEditBreakdown:
    def test_pure_substitution(self):
        assert edit_breakdown([1, 2, 3], [1, 9, 3]) == (1, 0, 0)

    def test_pure_insertion(self):
        assert edit_breakdown([1, 2], [1, 7, 2]) == (0, 1, 0)

    def test_pure_deletion(self):
        assert edit_breakdown([1, 2, 3], [1, 3]) == (0, 0, 1)

    def test_empty_sides(self):
        assert edit_breakdown([], [1, 2]) == (0, 2, 0)
        assert edit_breakdown([1, 2], []) == (0, 0, 2)

    @pytest.mark.parametrize(
        "sent,received",
        [
            ([1, 2, 3, 4], [2, 3, 4, 5]),
            ([0, 1, 0, 1, 2], [1, 0, 2, 2]),
            (list(range(10)), [0, 1, 9, 3, 4, 4, 5, 6, 7, 8, 9]),
        ],
    )
    def test_breakdown_sums_to_levenshtein(self, sent, received):
        subs, ins, dels = edit_breakdown(sent, received)
        assert subs + ins + dels == levenshtein(sent, received)
        # length bookkeeping: received = sent - deletions + insertions
        assert len(received) == len(sent) - dels + ins


class TestWindowedDivergence:
    def test_perfect_recovery_is_zero_everywhere(self):
        seq = list(range(32))
        report = windowed_divergence(seq, seq, window=8)
        assert report.overall == 0.0
        assert report.worst == 0.0
        assert all(v == 0.0 for v in report.per_window)

    def test_rotation_invariant(self):
        truth = list(range(32))
        rotated = truth[5:] + truth[:5]
        assert windowed_divergence(rotated, truth).overall == 0.0

    def test_local_garble_shows_as_hot_window(self):
        truth = list(range(32))
        garbled = truth[:24] + [99, 98, 97, 96, 95, 94, 93, 92]
        report = windowed_divergence(garbled, truth, window=8)
        assert report.worst == 1.0  # the final window fully diverged
        assert report.per_window[0] == 0.0
        assert report.overall <= report.worst

    def test_empty_truth(self):
        assert windowed_divergence([], []).overall == 0.0
        assert windowed_divergence([1], []).overall == 1.0

    def test_report_means(self):
        report = DivergenceReport(overall=0.5, per_window=(0.2, 0.4), window=4)
        assert report.worst == 0.4
        assert report.mean_windowed == pytest.approx(0.3)


class TestMetricOrientation:
    @pytest.mark.parametrize(
        "name",
        ["seq_error_rate", "divergence_worst_window", "max_throughput_loss_percent",
         "out_of_sync", "profiling_seconds", "probe_sweep_ms"],
    )
    def test_lower_is_better(self, name):
        assert metric_orientation(name) == "lower"

    @pytest.mark.parametrize(
        "name", ["accuracy_ddio", "sweep_speedup", "binary_best_bps"]
    )
    def test_higher_is_better(self, name):
        assert metric_orientation(name) == "higher"

    @pytest.mark.parametrize(
        "name", ["empty_set_fraction", "sets_per_instance", "keyed_rekeys"]
    )
    def test_descriptive_metrics_are_info(self, name):
        assert metric_orientation(name) == "info"


class TestHistogramPercentiles:
    def test_interpolates_within_buckets(self):
        hist = Histogram(buckets=(10.0, 20.0, 40.0))
        for v in (2, 4, 6, 8, 12, 14, 30, 50):
            hist.observe(v)
        p50 = hist.percentile(50.0)
        assert 4 <= p50 <= 12
        assert hist.percentile(0.0) == hist.min
        assert hist.percentile(100.0) == hist.max

    def test_monotone_in_q(self):
        hist = Histogram(buckets=(10.0, 100.0, 1000.0))
        for v in (1, 5, 50, 500, 5000, 90, 9, 900):
            hist.observe(v)
        qs = [5, 25, 50, 75, 95, 99]
        values = [hist.percentile(q) for q in qs]
        assert values == sorted(values)
        assert all(hist.min <= v <= hist.max for v in values)

    def test_empty_and_invalid(self):
        hist = Histogram(buckets=(10.0,))
        assert hist.percentile(50.0) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_snapshot_carries_percentiles(self):
        hist = Histogram(buckets=(10.0, 20.0))
        hist.observe(5)
        snap = hist.to_dict()
        assert set(snap["percentiles"]) == {"p50", "p95", "p99"}

    def test_merged_snapshots_give_identical_percentiles(self):
        # the jobs-invariance property: observations split across worker
        # registries and merged must yield the same percentiles as one
        whole = Histogram(buckets=(10.0, 20.0, 40.0))
        a = Histogram(buckets=(10.0, 20.0, 40.0))
        b = Histogram(buckets=(10.0, 20.0, 40.0))
        values = [3, 7, 11, 13, 22, 35, 50, 8]
        for i, v in enumerate(values):
            whole.observe(v)
            (a if i % 2 else b).observe(v)
        a.merge_dict(b.to_dict())
        assert a.percentiles() == whole.percentiles()


class TestQualityRegistry:
    def test_none_without_telemetry(self):
        assert quality_registry(None) is None

    def test_none_when_metrics_disabled(self):
        telemetry = Telemetry.create(trace=True, metrics=False)
        assert quality_registry(telemetry) is None

    def test_registry_when_enabled(self):
        telemetry = Telemetry.create(trace=False, metrics=True)
        assert quality_registry(telemetry) is telemetry.metrics

    def test_hooks_switch_disables(self):
        telemetry = Telemetry.create(trace=False, metrics=True)
        previous = set_hooks_enabled(False)
        try:
            assert quality_registry(telemetry) is None
        finally:
            set_hooks_enabled(previous)
        assert quality_registry(telemetry) is telemetry.metrics


def _calibrated_machine(config):
    from repro.attack.timing import calibrate_threshold
    from repro.core.machine import Machine

    machine = Machine(config)
    machine.install_nic()
    spy = machine.new_process("spy")
    threshold = calibrate_threshold(spy)
    return machine, spy, threshold


class TestHookSites:
    """The attack layers populate quality.* under an enabled session."""

    @pytest.fixture(scope="class")
    def quality_snapshot(self):
        from repro.attack.evictionset import OracleEvictionSetBuilder
        from repro.attack.primeprobe import ProbeMonitor

        telemetry = Telemetry.create(trace=False, metrics=True)
        with session(telemetry):
            _, spy, threshold = _calibrated_machine(
                MachineConfig().scaled_down()
            )
            builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
            groups = builder.build_page_aligned_groups(block=0)
            ProbeMonitor(spy, groups).sample(4, wait_cycles=10_000)
        return telemetry.metrics.snapshot()

    def test_calibration_metrics_recorded(self, quality_snapshot):
        counters = quality_snapshot["counters"]
        gauges = quality_snapshot["gauges"]
        assert counters["quality.calibration.runs"] == 1
        assert counters["quality.calibration.attempts"] >= 1
        assert gauges["quality.calibration.snr_last"] > 0
        assert 0.0 <= gauges["quality.calibration.margin_last"] <= 1.0
        assert quality_snapshot["histograms"]["quality.calibration.snr"]["count"] == 1

    def test_probe_sweep_metrics_recorded(self, quality_snapshot):
        hist = quality_snapshot["histograms"]["quality.probe.margin_cycles"]
        assert hist["count"] > 0

    def test_no_quality_metrics_without_session(self):
        from repro.attack.timing import calibrate_threshold  # noqa: F401

        telemetry = Telemetry.create(trace=False, metrics=True)
        # nothing installed: hook sites see no ambient telemetry
        _calibrated_machine(MachineConfig().scaled_down())
        assert "quality.calibration.runs" not in (
            telemetry.metrics.snapshot()["counters"]
        )


N_PROBES = 10
N_SETS = 4


def _margins(snapshot: dict) -> dict:
    return snapshot["histograms"].get("quality.probe.margin_cycles", {"count": 0})


def _probe_rig(traffic: bool = True):
    """A metered machine, optionally under broadcast traffic, and
    ``N_SETS`` eviction sets."""
    from repro.attack.evictionset import OracleEvictionSetBuilder
    from repro.attack.timing import calibrate_threshold
    from repro.core.machine import Machine
    from repro.net.traffic import ConstantStream

    telemetry = Telemetry.create(trace=False, metrics=True)
    machine = Machine(MachineConfig().scaled_down(), telemetry=telemetry)
    machine.install_nic()
    spy = machine.new_process("spy")
    builder = OracleEvictionSetBuilder(spy, calibrate_threshold(spy), huge_pages=4)
    sets = builder.build_page_aligned_groups()[:N_SETS]
    if traffic:
        sender = ConstantStream(size=256, rate_pps=20_000, protocol="broadcast")
        sender.attach(machine, machine.nic)
    return machine, spy, sets


def _probe_through(path: str) -> dict:
    """Metrics after ``N_PROBES`` probes of ``N_SETS`` sets down one path."""
    from repro.attack.primeprobe import ProbeMonitor, SetSweep

    machine, spy, sets = _probe_rig()
    wait = 120_000
    if path == "monitor":
        ProbeMonitor(spy, sets).sample(N_PROBES, wait_cycles=wait)
    else:
        for es in sets:
            es.prime()
        sweep = SetSweep(spy, sets)
        for _ in range(N_PROBES):
            machine.idle(wait)
            if path == "sweep":
                sweep.probe()
            else:
                for es in sets:
                    es.probe()
    return machine.telemetry.metrics.snapshot()


class TestOneMarginRule:
    """Every probe path adds one margin per probed set, the same margin."""

    @pytest.mark.parametrize("path", ["monitor", "sweep", "per-set"])
    def test_one_margin_per_probed_set(self, path):
        assert _margins(_probe_through(path))["count"] == N_PROBES * N_SETS

    def test_paths_record_the_same_margins(self):
        monitor = _probe_through("monitor")
        assert monitor["counters"]["probe.misses"] > 0  # traffic landed
        assert _margins(_probe_through("sweep")) == _margins(monitor)
        assert _margins(_probe_through("per-set")) == _margins(monitor)

    def test_fast_forward_records_k_probes(self):
        from repro.attack.primeprobe import SetSweep

        # Quiet machine: every line stays resident, so the probes are the
        # all-hit ones fast_forward stands for.
        machine, spy, sets = _probe_rig(traffic=False)
        for es in sets:
            es.prime()
        sweep = SetSweep(spy, sets)
        sweep.probe()
        metrics = machine.telemetry.metrics
        before = _margins(metrics.snapshot())["count"]
        sweep.fast_forward(7)
        assert _margins(metrics.snapshot())["count"] - before == 7 * N_SETS


class TestBitIdentityAtHookSites:
    """Quality hooks must not perturb results — on, off, or absent."""

    def test_table1_identical_with_and_without_metrics(self):
        from repro.experiments.sequencing import run_table1

        kwargs = dict(
            n_monitored=8,
            n_samples=400,
            packet_rate=15_000,
            probe_rate_hz=16_000,
            huge_pages=4,
        )
        config = MachineConfig().scaled_down()
        plain = run_table1(config, **kwargs)
        with session(Telemetry.create(trace=False, metrics=True)):
            metered = run_table1(config, **kwargs)
        assert plain.recovered == metered.recovered
        assert plain.truth == metered.truth
        assert plain.distance == metered.distance
        assert plain.divergence == metered.divergence

    def test_covert_channel_identical_with_and_without_metrics(self):
        from repro.experiments.covert_channel import run_fig10

        config = MachineConfig().scaled_down()
        plain = run_fig10(config, n_symbols=12, huge_pages=4)
        with session(Telemetry.create(trace=False, metrics=True)):
            metered = run_fig10(config, n_symbols=12, huge_pages=4)
        assert plain.received == metered.received
        assert plain.sent == metered.sent

    def test_channel_report_breakdown_preserves_error_rate(self):
        from repro.analysis.capacity import evaluate_channel

        report = evaluate_channel(
            [0, 1, 2, 0, 1], [0, 1, 0, 1, 1], elapsed_seconds=1.0, alphabet=3
        )
        assert report.substitutions + report.insertions + report.deletions == (
            report.edit_distance
        )
        assert report.error_rate == report.edit_distance / report.symbols_sent
