"""Differential harness: the columnar pipeline vs the frozen scalar reference.

Every vectorised consumer of the columnar :class:`SampleTrace` is pinned
bit-for-bit against the verbatim pre-refactor implementations frozen in
:mod:`repro.analysis.legacy` and :mod:`repro.attack.legacy_analysis`:

* sequencer — successor-graph build (including dict *insertion order*,
  which decides tie-breaking) and the greedy walk, over thousands of
  randomized synthetic sample rows plus live end-to-end recoveries
  across cache backends x fault profiles x adaptive on/off;
* discovery — block-set co-occurrence scores and the argmax pick;
* covert — the window-decode state machine over randomized activity,
  driven through the real ``CovertReceiver.listen`` loop;
* levenshtein family — property-based (hypothesis) equality for plain,
  cyclic, rotation, breakdown and mismatch-run variants;
* correlation — classifier decisions exact, scores within 1e-12 (GEMV
  and ddot legitimately differ in the last float bits);
* LFSR — output bits, post-run register state, and symbol rejection
  sampling;
* activity summaries — counts/fractions plus the no-re-pack cache;
* ``SetSweep`` — cycle- and telemetry-identity against per-set
  ``EvictionSet.probe`` loops on mirrored machines;
* the shared percentile-rank rule between ``analysis.stats`` and the
  telemetry ``Histogram``.
"""

from __future__ import annotations

import copy
import importlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import analysis as LEGACY
from repro.analysis.correlation import (
    CorrelationClassifier,
    cross_correlation,
    cross_correlation_many,
)
from repro.analysis.lfsr import LFSR, lfsr_bits, lfsr_symbols
from reference.attack_analysis import (
    legacy_activity_counts,
    legacy_activity_fraction,
    legacy_block_scores,
    legacy_build_graph,
    legacy_decode_activity,
    legacy_make_sequence,
)
from repro.attack.primeprobe import SampleTrace, SetSweep
from repro.attack.sequencer import (
    Sequencer,
    SequencerConfig,
    greedy_sequence,
    transition_graph,
)
from repro.core.config import MachineConfig
from repro.core.machine import Machine
from repro.faults import get_profile

# ``repro.analysis.levenshtein`` the *module* — the package re-exports the
# function of the same name, so plain attribute access would shadow it.
LEV = importlib.import_module("repro.analysis.levenshtein")


def _rand_matrix(rng: random.Random, n_rows: int, n_sets: int, density: float):
    """A synthetic activity matrix shaped like a scan: mostly a ring walk
    with noise, so the graphs have real structure (and real ties)."""
    matrix = np.zeros((n_rows, n_sets), dtype=np.int64)
    pos = rng.randrange(n_sets)
    for i in range(n_rows):
        if rng.random() < 0.7:
            pos = (pos + 1) % n_sets
        matrix[i, pos] = rng.randrange(1, 4)
        while rng.random() < density:
            matrix[i, rng.randrange(n_sets)] = rng.randrange(1, 4)
    return matrix


def _graph_orders(graph):
    """(edge order, per-edge successor order) — the tie-break state."""
    return list(graph), {e: list(s) for e, s in graph.items()}


class TestSequencerEquivalence:
    def test_graph_and_walk_pin_bit_identical(self):
        """>= 10k randomized sample rows through both implementations."""
        rng = random.Random(1234)
        total_rows = 0
        nonempty_graphs = 0
        for trial in range(220):
            n_rows = rng.randrange(20, 90)
            n_sets = rng.randrange(3, 25)
            matrix = _rand_matrix(rng, n_rows, n_sets, density=rng.random() * 0.4)
            total_rows += n_rows
            threshold = rng.choice([1, 2, 3])
            rows = [list(map(int, row)) for row in matrix]
            expected = legacy_build_graph(rows, threshold)
            got = transition_graph(matrix, threshold)
            assert got == expected
            assert _graph_orders(got) == _graph_orders(expected)
            if not got:
                continue
            nonempty_graphs += 1
            cutoff = rng.choice([1, 2, 3])
            before = copy.deepcopy(got)
            walk = greedy_sequence(
                got, Sequencer._get_root(got), 8 * n_sets, cutoff
            )
            # legacy mutates its graph (visited -> 0); give it a copy.
            assert walk == legacy_make_sequence(
                copy.deepcopy(expected), n_sets, cutoff
            )
            assert got == before, "vectorised walk must not mutate the graph"
        assert total_rows >= 10_000
        assert nonempty_graphs >= 200

    def test_empty_and_dark_matrices(self):
        assert transition_graph(np.zeros((0, 5), dtype=np.int64), 1) == {}
        assert transition_graph(np.zeros((50, 5), dtype=np.int64), 1) == {}
        # A single always-active column never leaves prev == curr context.
        mono = np.zeros((40, 4), dtype=np.int64)
        mono[:, 2] = 1
        assert transition_graph(mono, 1) == legacy_build_graph(
            [list(map(int, r)) for r in mono], 1
        )


class TestActivitySummaries:
    def _trace(self, matrix):
        return SampleTrace(
            samples=matrix,
            times=np.arange(matrix.shape[0], dtype=np.int64),
            set_labels=[str(j) for j in range(matrix.shape[1])],
        )

    def test_counts_and_fractions_match_legacy(self):
        rng = random.Random(77)
        for _ in range(40):
            matrix = _rand_matrix(
                rng, rng.randrange(1, 60), rng.randrange(1, 12), 0.3
            )
            trace = self._trace(matrix)
            rows = [list(map(int, r)) for r in matrix]
            assert trace.activity_counts() == legacy_activity_counts(
                rows, matrix.shape[1]
            )
            assert trace.activity_fraction() == legacy_activity_fraction(
                rows, matrix.shape[1]
            )

    def test_empty_trace_summaries(self):
        trace = SampleTrace(samples=[], times=[], set_labels=["a", "b"])
        assert trace.activity_counts() == [0, 0]
        assert trace.activity_fraction() == [0.0, 0.0]

    def test_summaries_cached_no_repack(self):
        """After the first computation the matrix is never touched again."""
        trace = self._trace(_rand_matrix(random.Random(5), 30, 6, 0.3))
        counts = trace.activity_counts()
        fractions = trace.activity_fraction()
        trace.samples = None  # any later re-read would now explode
        assert trace.activity_counts() == counts
        assert trace.activity_fraction() == fractions


class TestResolveScores:
    def test_resolve_block_set_matches_legacy_scoring(self, monkeypatch):
        from repro.attack import discovery as disco

        rng = random.Random(31)
        for _ in range(60):
            n_cands = rng.randrange(1, 9)
            matrix = _rand_matrix(rng, rng.randrange(5, 50), n_cands + 1, 0.5)
            trace = SampleTrace(
                samples=matrix,
                times=np.arange(matrix.shape[0], dtype=np.int64),
                set_labels=[str(j) for j in range(n_cands + 1)],
            )

            class _StubMonitor:
                def __init__(self, process, sets, supervisor=None):
                    pass

                def sample(self, n_samples, wait_cycles):
                    return trace

            monkeypatch.setattr(disco, "ProbeMonitor", _StubMonitor)
            finder = disco.RingDiscovery.__new__(disco.RingDiscovery)
            finder.process = None
            finder.groups = [object()]
            candidates = [object() for _ in range(n_cands)]
            picked = finder.resolve_block_set(object(), candidates, 1, 0)
            rows = [list(map(int, r)) for r in matrix]
            scores = legacy_block_scores(rows, n_cands)
            # The scalar scan kept the first strict maximum.
            best, best_score = 0, scores[0]
            for j, score in enumerate(scores):
                if score > best_score:
                    best, best_score = j, score
            assert picked is candidates[best]


# ---------------------------------------------------------------------------
# covert decode
# ---------------------------------------------------------------------------


class _StubClock:
    def __init__(self):
        self.now = 0


class _StubMachine:
    def __init__(self):
        self.clock = _StubClock()

    def idle(self, cycles):
        self.clock.now += cycles

    def cpu_access_many(self, paddrs):
        pass


class _StubProcess:
    def __init__(self):
        self.machine = _StubMachine()


class _StubSet:
    def prime(self):
        pass

    def prime_order(self):
        return np.zeros(0, dtype=np.int64)


class _StubSweep:
    def __init__(self, rows):
        self.rows = rows
        self.i = 0

    def probe(self):
        row = self.rows[self.i]
        self.i += 1
        return row


class TestCovertDecodeEquivalence:
    def _receiver(self, n_streams, window, rows):
        from repro.attack.covert import CovertReceiver, StreamMonitors

        streams = [
            StreamMonitors(_StubSet(), _StubSet(), _StubSet())
            for _ in range(n_streams)
        ]
        receiver = CovertReceiver(_StubProcess(), streams, window=window)
        receiver._sweep = lambda: _StubSweep(rows)  # replay recorded activity
        return receiver

    def test_listen_matches_legacy_state_machine(self):
        rng = random.Random(99)
        wait = 13
        for trial in range(50):
            n_streams = rng.randrange(1, 6)
            window = rng.choice([1, 2, 3, 4])
            alphabet = rng.choice([2, 3])
            n_rows = rng.randrange(5, 80)
            rows = [
                np.array(
                    [rng.randrange(3) if rng.random() < 0.5 else 0
                     for _ in range(3 * n_streams)],
                    dtype=np.int64,
                )
                for _ in range(n_rows)
            ]
            n_symbols = rng.randrange(1, 12)
            receiver = self._receiver(n_streams, window, rows)
            decoded = receiver.listen(
                n_symbols, wait, max_samples=n_rows, alphabet=alphabet
            )
            active = [r > 0 for r in rows]
            expected = legacy_decode_activity(
                clock_rows=[[bool(r[3 * k]) for k in range(n_streams)] for r in active],
                b2_rows=[[bool(r[3 * k + 1]) for k in range(n_streams)] for r in active],
                b3_rows=[[bool(r[3 * k + 2]) for k in range(n_streams)] for r in active],
                times=[wait * (i + 1) for i in range(n_rows)],
                window=window,
                alphabet=alphabet,
                n_symbols=n_symbols,
            )
            assert [(d.time, d.stream, d.symbol) for d in decoded] == expected


# ---------------------------------------------------------------------------
# levenshtein family
# ---------------------------------------------------------------------------

seqs = st.lists(st.integers(0, 8), min_size=0, max_size=40)


class TestLevenshteinEquivalence:
    @given(a=seqs, b=seqs)
    @settings(max_examples=150, deadline=None)
    def test_plain_and_breakdown_match_legacy(self, a, b):
        assert LEV.levenshtein(a, b) == LEGACY.levenshtein(a, b)
        assert LEV.edit_breakdown(a, b) == LEGACY.edit_breakdown(a, b)
        assert LEV.longest_mismatch_run(a, b) == LEGACY.longest_mismatch_run(a, b)

    @given(a=seqs, b=seqs)
    @settings(max_examples=150, deadline=None)
    def test_cyclic_and_rotation_match_legacy(self, a, b):
        assert LEV.cyclic_levenshtein(a, b) == LEGACY.cyclic_levenshtein(a, b)
        assert LEV.best_rotation(a, b) == LEGACY.best_rotation(a, b)

    @given(a=seqs)
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, a):
        assert LEV.levenshtein(a, a) == 0
        assert LEV.levenshtein(a, []) == len(a)
        assert LEV.cyclic_levenshtein(a, a) == 0

    def test_long_inputs_cross_the_vector_cutoff(self):
        """Large inputs take the NumPy DP path; still bit-identical."""
        rng = random.Random(17)
        for _ in range(6):
            n = rng.randrange(150, 400)
            truth = [rng.randrange(32) for _ in range(n)]
            shift = rng.randrange(n)
            recovered = truth[shift:] + truth[:shift]
            for i in range(0, n, 11):
                recovered[i] = rng.randrange(32)
            assert LEV.levenshtein(recovered, truth) == LEGACY.levenshtein(
                recovered, truth
            )
            assert LEV.cyclic_levenshtein(recovered, truth) == (
                LEGACY.cyclic_levenshtein(recovered, truth)
            )
            assert LEV.best_rotation(recovered, truth) == LEGACY.best_rotation(
                recovered, truth
            )
            assert LEV.edit_breakdown(truth, recovered) == LEGACY.edit_breakdown(
                truth, recovered
            )
            assert LEV.longest_mismatch_run(recovered, truth) == (
                LEGACY.longest_mismatch_run(recovered, truth)
            )

    def test_non_integer_elements_still_work(self):
        a = list("kitten tales")
        b = list("sitting tails")
        assert LEV.levenshtein(a, b) == LEGACY.levenshtein(a, b)
        mixed = [("t", 1), ("t", 2), None, "x"] * 30
        other = [("t", 2), None, None, "y"] * 30
        assert LEV.levenshtein(mixed, other) == LEGACY.levenshtein(mixed, other)


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------


class TestCorrelationEquivalence:
    def test_cross_correlation_many_matches_scalar(self):
        rng = random.Random(3)
        for n, max_lag in [(10, 0), (10, 4), (50, 8), (100, 8), (100, 1)]:
            traces = [
                [rng.uniform(0.0, 4.0) for _ in range(n)] for _ in range(6)
            ]
            reps = [[rng.uniform(0.0, 4.0) for _ in range(n)] for _ in range(4)]
            # Degenerate (constant) rows on both sides as well.
            traces.append([1.5] * n)
            reps.append([0.0] * n)
            best = cross_correlation_many(
                np.asarray(traces), np.asarray(reps), max_lag=max_lag
            )
            for i, trace in enumerate(traces):
                for j, rep in enumerate(reps):
                    assert best[i, j] == pytest.approx(
                        cross_correlation(trace, rep, max_lag=max_lag),
                        abs=1e-12,
                    )
                    assert best[i, j] == pytest.approx(
                        LEGACY.cross_correlation(trace, rep, max_lag=max_lag),
                        abs=1e-12,
                    )

    def test_classifier_matches_legacy(self):
        rng = random.Random(8)
        n, sites, trials = 60, 5, 40
        training = {
            f"site{s}": [
                [float(rng.randrange(1, 5)) for _ in range(n)] for _ in range(3)
            ]
            for s in range(sites)
        }
        clf = CorrelationClassifier(trace_length=n, max_lag=8)
        legacy_clf = LEGACY.CorrelationClassifier(trace_length=n, max_lag=8)
        clf.fit(training)
        legacy_clf.fit(training)
        assert clf.labels == list(legacy_clf.representatives)
        traces = [
            [rng.randrange(1, 5) for _ in range(rng.randrange(10, n + 20))]
            for _ in range(trials)
        ]
        for trace in traces:
            scores = clf.scores(trace)
            legacy_scores = legacy_clf.scores(trace)
            assert list(scores) == list(legacy_scores)
            for site in scores:
                assert scores[site] == pytest.approx(
                    legacy_scores[site], abs=1e-12
                )
            assert clf.classify(trace) == legacy_clf.classify(trace)
        assert clf.classify_many(traces) == [
            legacy_clf.classify(t) for t in traces
        ]
        labelled = [(f"site{i % sites}", t) for i, t in enumerate(traces)]
        assert clf.accuracy(labelled) == legacy_clf.accuracy(labelled)


# ---------------------------------------------------------------------------
# LFSR
# ---------------------------------------------------------------------------


class TestLfsrEquivalence:
    @pytest.mark.parametrize("width", [4, 7, 15, 16])
    def test_bits_and_state_identical(self, width):
        for seed in (1, 0x5A5A, (1 << width) - 1):
            for count in (0, 1, 5, width - 1, width, width + 1, 256, 1000):
                new = LFSR(width=width, seed=seed)
                old = LEGACY.LFSR(width=width, seed=seed)
                assert new.bits(count) == old.bits(count)
                assert new.state == old.state
                # Continuation after a batched draw stays aligned too.
                assert new.bits(7) == old.bits(7)
                assert new.state == old.state

    def test_module_level_helpers(self):
        assert lfsr_bits(500) == LEGACY.lfsr_bits(500)
        for alphabet in (2, 3):
            for count in (0, 1, 17, 400):
                assert lfsr_symbols(count, alphabet) == LEGACY.lfsr_symbols(
                    count, alphabet
                )


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------


class TestPercentileRule:
    def test_stats_and_histogram_share_the_rank_rule(self):
        from repro.analysis.stats import percentile, percentile_rank
        from repro.telemetry.metrics import Histogram

        rng = random.Random(21)
        data = [float(rng.randrange(0, 50)) for _ in range(500)]
        # Unit-width buckets: each integer value sits exactly at an edge,
        # so interpolation error is bounded by one bucket width.
        hist = Histogram(buckets=tuple(float(v) for v in range(51)))
        hist.observe_many(data)
        for q in (1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0):
            exact = percentile(data, q)
            estimate = hist.percentile(q)
            assert abs(estimate - exact) <= 1.0, (q, exact, estimate)

    def test_shared_validation(self):
        from repro.analysis.stats import percentile_rank

        with pytest.raises(ValueError):
            percentile_rank(10, -0.1)
        with pytest.raises(ValueError):
            percentile_rank(10, 100.5)
        assert percentile_rank(200, 95.0) == pytest.approx(190.0)

    def test_histogram_rejects_bad_q_even_when_empty(self):
        from repro.telemetry.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 2.0)).percentile(101.0)


# ---------------------------------------------------------------------------
# SetSweep vs per-set probes (mirrored machines)
# ---------------------------------------------------------------------------


def _mirrored_machine():
    from repro.telemetry.context import Telemetry

    cfg = MachineConfig().scaled_down()
    machine = Machine(cfg, telemetry=Telemetry.create(trace=False, metrics=True))
    machine.install_nic()
    return machine


def _probe_sets(machine, n_sets=6):
    from repro.attack.evictionset import OracleEvictionSetBuilder
    from repro.attack.timing import calibrate_threshold

    spy = machine.new_process("spy")
    builder = OracleEvictionSetBuilder(spy, calibrate_threshold(spy), huge_pages=4)
    return spy, builder.build_page_aligned_groups()[:n_sets]


class TestSetSweepEquivalence:
    def test_sweep_is_cycle_and_telemetry_identical(self):
        from repro.net.traffic import ConstantStream

        batched = _mirrored_machine()
        scalar = _mirrored_machine()
        spy_b, sets_b = _probe_sets(batched)
        spy_s, sets_s = _probe_sets(scalar)
        for machine in (batched, scalar):
            sender = ConstantStream(size=256, rate_pps=20_000, protocol="broadcast")
            sender.attach(machine, machine.nic)
        for es in sets_b:
            es.prime()
        for es in sets_s:
            es.prime()
        sweep = SetSweep(spy_b, sets_b)
        for _ in range(25):
            batched.idle(120_000)
            scalar.idle(120_000)
            row = sweep.probe()
            loop = [es.probe() for es in sets_s]
            assert [int(v) for v in row] == loop
            assert batched.clock.now == scalar.clock.now
        assert (
            batched.telemetry.metrics.snapshot()
            == scalar.telemetry.metrics.snapshot()
        )


# ---------------------------------------------------------------------------
# end-to-end: live recoveries across backends x faults x adaptive
# ---------------------------------------------------------------------------


def _recovery_machine(backend: str, faults: str):
    cfg = replace(
        MachineConfig().scaled_down(), cache_backend=backend, faults=get_profile(faults)
    )
    machine = Machine(cfg)
    machine.install_nic()
    return machine


def _run_recovery(backend: str, faults: str, adaptive: bool):
    from repro.attack.evictionset import OracleEvictionSetBuilder
    from repro.attack.timing import calibrate_threshold
    from repro.net.traffic import ConstantStream

    machine = _recovery_machine(backend, faults)
    spy = machine.new_process("spy")
    builder = OracleEvictionSetBuilder(spy, calibrate_threshold(spy), huge_pages=4)
    groups = builder.build_page_aligned_groups()[:8]
    supervisor = None
    if adaptive:
        from repro.attack.adaptive import AdaptiveSupervisor

        supervisor = AdaptiveSupervisor(spy)
    sender = ConstantStream(size=64, rate_pps=15_000, protocol="broadcast")
    sender.attach(machine, machine.nic)
    config = SequencerConfig(n_samples=700, wait_cycles=150_000)
    sequencer = Sequencer(spy, groups, config, supervisor=supervisor)
    sequence, trace = sequencer.recover()
    sender.stop()
    return sequencer, sequence, trace


@pytest.mark.parametrize(
    "backend,faults,adaptive",
    [
        ("modulo", "off", False),
        ("modulo", "light", False),
        ("modulo", "light", True),
        ("keyed:epoch=0", "off", False),
        ("keyed:epoch=0", "light", False),
        ("skewed:partitions=2", "off", False),
        ("skewed:partitions=2", "light", False),
    ],
)
def test_live_recovery_matches_legacy_recomputation(backend, faults, adaptive):
    """The live columnar pipeline, replayed through the frozen scalar one.

    Whatever trace the machine produced (under the given index backend,
    fault profile and adaptive supervision), rebuilding the graph and the
    greedy sequence from ``trace.samples`` with the legacy loops must give
    the exact objects the live run computed.
    """
    sequencer, sequence, trace = _run_recovery(backend, faults, adaptive)
    rows = [list(map(int, row)) for row in trace.samples]
    cfg = sequencer.config
    expected_graph = legacy_build_graph(rows, cfg.miss_threshold)
    live_graph = sequencer.build_graph(trace)
    assert live_graph == expected_graph
    assert _graph_orders(live_graph) == _graph_orders(expected_graph)
    if expected_graph:
        expected_sequence = legacy_make_sequence(
            copy.deepcopy(expected_graph), len(sequencer.groups), cfg.weight_cutoff
        )
        assert sequence == expected_sequence
    else:
        assert sequence == []
    n_sets = trace.n_sets
    assert trace.activity_counts() == legacy_activity_counts(rows, n_sets)
    assert trace.activity_fraction() == legacy_activity_fraction(rows, n_sets)
