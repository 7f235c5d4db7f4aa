"""PRIME+PROBE monitoring over a list of eviction sets.

This is the Mastik-equivalent layer: given eviction sets for the cache sets
of interest, ``sample`` runs the PRIME - IDLE - PROBE loop and returns an
activity matrix (samples x sets of miss counts).  The probe *rate* — how
long the idle step waits — is the paper's central tuning knob: it must be
long enough that one packet's activity lands in one sample, and short
enough not to lose the temporal order of consecutive packets (Table I's
parameters: 8000 probes/s against 0.2 M packets/s).

Since the engine refactor a timed probe sweep is a *single* batched
machine call over the concatenation of every monitored set's traversal:
:meth:`Machine.cpu_access_many` preserves per-access event and clock
semantics, so the combined sweep is cycle-identical to the historical
per-line Python loop while running an order of magnitude faster.

The trace itself is **columnar**: :class:`SampleTrace` holds one packed
``(n_samples, n_sets)`` int64 matrix plus an int64 times vector, filled
in place by the sweep loop (no per-sweep Python lists), and every
downstream consumer — sequencer graph build, discovery co-occurrence,
covert decode, activity summaries — operates on it with array kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attack.evictionset import EvictionSet
from repro.telemetry.quality import (
    ProbeSweepAccumulator,
    quality_registry,
    record_probe_latencies,
)


@dataclass
class SampleTrace:
    """Result of a monitoring session, stored columnar.

    ``samples`` is a packed ``(n_samples, n_sets)`` int64 matrix —
    ``samples[i, j]`` = misses observed in probe i on monitored set j —
    and ``times`` an int64 vector of sweep-start times.  The constructor
    still accepts plain (possibly nested) lists and packs them once;
    activity summaries are computed once and cached.
    """

    #: samples[i, j] = misses observed in probe i on monitored set j.
    samples: np.ndarray
    #: Simulated time at the start of each probe sweep.
    times: np.ndarray
    set_labels: list[str]
    _counts: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _fractions: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.int64)
        if samples.ndim != 2:
            if samples.size:
                raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
            samples = samples.reshape(0, len(self.set_labels))
        self.samples = samples
        self.times = np.asarray(self.times, dtype=np.int64)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_sets(self) -> int:
        return len(self.set_labels)

    def activity_counts(self) -> list[int]:
        """Per-set count of samples with at least one miss (cached)."""
        if self._counts is None:
            if self.samples.shape[0]:
                self._counts = (self.samples > 0).sum(axis=0, dtype=np.int64)
            else:
                self._counts = np.zeros(self.n_sets, dtype=np.int64)
        return [int(c) for c in self._counts]

    def activity_fraction(self) -> list[float]:
        """Per-set fraction of active samples (cached)."""
        if self._fractions is None:
            counts = self.activity_counts()
            n = self.samples.shape[0] if self.samples is not None else 0
            if not n:
                self._fractions = [0.0] * self.n_sets
            else:
                self._fractions = [c / n for c in counts]
        return self._fractions


def _probe_order_arrays(
    sets: list[EvictionSet], cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated next-probe ``(paddrs, flats, lines)`` over ``sets``.

    Keyed in ``cache`` by each set's flip parity: a sweep flips every set
    together, so steady-state probing ping-pongs between two cached
    signatures and never re-concatenates.
    """
    key = bytes(es.version & 1 for es in sets)
    cached = cache.get(key)
    if cached is None:
        parts = [es.probe_order() for es in sets]
        cached = tuple(np.concatenate(column) for column in zip(*parts))
        if len(cache) >= 4:
            cache.clear()
        cache[key] = cached
    return cached


class SetSweep:
    """One batched timed probe over a fixed list of eviction sets.

    The concatenation of every set's zig-zag traversal goes out as a
    single :meth:`Machine.cpu_access_many` call — access order, event
    timing and the clock are identical to calling ``es.probe()`` per set
    — and the telemetry :meth:`EvictionSet.probe` would have recorded
    per set is recorded once for the batch (histograms and counters are
    order-independent sums of the same integer latencies, so registry
    state is bit-identical).  Used by the covert receiver and the packet
    chaser, whose probe groups are small and fixed per decision.
    """

    def __init__(self, process, sets: list[EvictionSet]) -> None:
        if not sets:
            raise ValueError("sweep over an empty set list")
        self.process = process
        self.sets = list(sets)
        self._cache: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._offsets: np.ndarray | None = None
        self._thresholds: np.ndarray | None = None
        #: Accesses per probe: every set's lines, once each.
        self.n_accesses = sum(len(es) for es in self.sets)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = _probe_order_arrays(self.sets, self._cache)
        if self._offsets is None:
            lens = np.fromiter(
                (len(es) for es in self.sets), np.int64, count=len(self.sets)
            )
            self._offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
            self._thresholds = np.repeat(
                np.fromiter(
                    (es.threshold.threshold for es in self.sets),
                    np.float64,
                    count=len(self.sets),
                ),
                lens,
            )
        return cached

    def probe(self) -> np.ndarray:
        """Timed zig-zag sweep; returns per-set miss counts (int64)."""
        machine = self.process.machine
        combined, flats, lines = self._arrays()
        lats = machine.cpu_access_many(combined, timed=True, decomp=(flats, lines))
        miss_mask = lats > self._thresholds
        counts = np.add.reduceat(miss_mask.astype(np.int64), self._offsets)
        for es in self.sets:
            es.flip()
        tele = machine.telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.histogram("probe.latency_cycles").observe_many(lats)
            tele.metrics.counter("probe.accesses").inc(len(combined))
            total_misses = int(miss_mask.sum())
            if total_misses:
                tele.metrics.counter("probe.misses").inc(total_misses)
            registry = quality_registry(tele)
            if registry is not None:
                record_probe_latencies(registry, lats, self._thresholds)
        return counts

    def quiet_cycles(self) -> int:
        """Cycles one probe takes when every access hits."""
        timing = self.process.machine.llc.timing
        return self.n_accesses * (timing.llc_hit_latency + timing.measure_overhead)

    def fast_forward(self, k: int) -> None:
        """Apply ``k`` back-to-back quiet probes in one step.

        A quiet probe hits on every line, reports no miss and takes
        :meth:`quiet_cycles`.  The caller guarantees what makes all ``k``
        quiet: every swept line is resident, a hit reads as no miss under
        the sets' thresholds, no event fires before the ``k``-th probe
        ends, no fault plan jitters the timer, and no re-key falls inside
        the ``k`` probes' accesses.  The clock, the LLC
        (:meth:`~repro.cache.llc.SlicedLLC.repeat_hits`), each set's
        zig-zag orientation and the telemetry then end exactly as after
        ``k`` calls of :meth:`probe`.
        """
        if k < 1:
            raise ValueError(f"fast_forward needs k >= 1, got {k}")
        machine = self.process.machine
        timing = machine.llc.timing
        # Only the k-th probe's stamps survive: orient the sets for it.
        for es in self.sets:
            es.flip(k - 1)
        combined, flats, lines = self._arrays()
        machine.llc.repeat_hits(combined, k, decomp=(flats, lines))
        for es in self.sets:
            es.flip()
        machine.clock.advance(k * self.quiet_cycles())
        tele = machine.telemetry
        if tele is not None and tele.metrics.enabled:
            lats = np.full(
                self.n_accesses,
                timing.llc_hit_latency + timing.measure_overhead,
                dtype=np.int64,
            )
            tele.metrics.histogram("probe.latency_cycles").observe_many(
                lats, repeat=k
            )
            tele.metrics.counter("probe.accesses").inc(self.n_accesses * k)
            registry = quality_registry(tele)
            if registry is not None:
                record_probe_latencies(registry, lats, self._thresholds, repeat=k)


class ProbeMonitor:
    """Prime+probe driver over a fixed monitor list."""

    def __init__(
        self, process, eviction_sets: list[EvictionSet], supervisor=None
    ) -> None:
        if not eviction_sets:
            raise ValueError("monitor list is empty")
        self.process = process
        self.sets = list(eviction_sets)
        #: Optional :class:`~repro.attack.adaptive.AdaptiveSupervisor`.
        #: When absent (the default) no adaptive machinery runs and the
        #: sample loop is bit-identical to pre-adaptive builds.
        self.supervisor = supervisor
        if supervisor is not None:
            supervisor.track(*self.sets)
        #: Concatenated traversal arrays per orientation signature.  A
        #: zig-zag sweep alternates between two signatures, so this holds
        #: two entries in steady state; interleaved per-set probes just
        #: miss the cache and rebuild.
        self._sweep_cache: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._lens: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._thresholds: np.ndarray | None = None
        #: Lazily-created quality-hook batcher; flushed when probing stops.
        self._quality_acc: ProbeSweepAccumulator | None = None

    def _sweep_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(paddrs, flats, lines) of the full probe-order sweep, cached."""
        cached = _probe_order_arrays(self.sets, self._sweep_cache)
        if self._lens is None:
            self._lens = np.fromiter(
                (len(es) for es in self.sets), np.int64, count=len(self.sets)
            )
            self._offsets = np.concatenate(([0], np.cumsum(self._lens)[:-1]))
            self._thresholds = np.repeat(
                np.fromiter(
                    (es.threshold.threshold for es in self.sets),
                    np.float64,
                    count=len(self.sets),
                ),
                self._lens,
            )
        return cached

    def __len__(self) -> int:
        return len(self.sets)

    def refresh_thresholds(self) -> None:
        """Drop the cached per-access threshold arrays (after an online
        recalibration changed ``es.threshold`` under us)."""
        self._lens = None
        self._offsets = None
        self._thresholds = None

    def _apply_recovery(self, event) -> None:
        """Swap in healed sets / refreshed thresholds, then re-prime."""
        if event.kind == "heal" and event.payload:
            self.sets = list(event.payload)
            self._sweep_cache.clear()
            self.supervisor.untrack_all()
            self.supervisor.track(*self.sets)
        self.refresh_thresholds()
        self.prime()

    def prime(self) -> None:
        """Initial fill of every monitored set."""
        tele = self.process.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "prime",
                cat="attack",
                args={
                    "sets": len(self.sets),
                    "sim_now": self.process.machine.clock.now,
                },
            ):
                for es in self.sets:
                    es.prime()
            return
        for es in self.sets:
            es.prime()

    def _probe_sweep(self) -> np.ndarray:
        """One timed sweep over every monitored set as a single batched call.

        Accesses are issued in exactly the order the per-set
        ``es.probe()`` loop would issue them (set 0's reversed traversal,
        then set 1's, ...), so events, the clock and every latency are
        unchanged — only the Python-loop overhead is gone.  Returns the
        per-set miss counts as an int64 row.
        """
        machine = self.process.machine
        combined, flats, lines = self._sweep_arrays()
        lats = machine.cpu_access_many(combined, timed=True, decomp=(flats, lines))
        miss_mask = lats > self._thresholds
        row = np.add.reduceat(miss_mask.astype(np.int64), self._offsets)
        for es in self.sets:
            es.flip()
        tele = machine.telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.histogram("probe.latency_cycles").observe_many(lats)
            tele.metrics.counter("probe.accesses").inc(len(combined))
            total_misses = int(miss_mask.sum())
            if total_misses:
                tele.metrics.counter("probe.misses").inc(total_misses)
            registry = quality_registry(tele)
            if registry is not None:
                acc = self._quality_acc
                if acc is None or acc.registry is not registry:
                    acc = self._quality_acc = ProbeSweepAccumulator(
                        registry, self._thresholds, self._offsets
                    )
                acc.add(lats, miss_mask, total_misses)
        return row

    def _fast_sweep(self) -> np.ndarray:
        """One aggregate-latency sweep, batched across every set.

        The sequential loop advances ``measure_overhead`` after each set's
        traversal; batching defers those advances to the end of the sweep.
        That is unobservable exactly when no event fires inside the
        sweep's worst-case window (and no partition reads the mid-sweep
        clock), so outside that window this falls back to the loop.
        """
        machine = self.process.machine
        llc = machine.llc
        timing = llc.timing
        combined, flats, lines = self._sweep_arrays()
        n_sets = len(self.sets)
        nxt = machine.events.peek_time()
        worst = (
            len(combined) * timing.llc_miss_latency
            + n_sets * timing.measure_overhead
        )
        if llc.partition is not None or (
            nxt is not None and nxt - machine.clock.now <= worst
        ):
            return np.fromiter(
                (es.probe_fast() for es in self.sets), np.int64, count=n_sets
            )
        lats = machine.cpu_access_many(combined, decomp=(flats, lines))
        for es in self.sets:
            es.flip()
        machine.clock.advance(n_sets * timing.measure_overhead)
        totals = np.add.reduceat(lats, self._offsets)
        baselines = self._lens * timing.llc_hit_latency
        est = np.round(
            (totals - baselines) / (timing.llc_miss_latency - timing.llc_hit_latency)
        ).astype(np.int64)
        return np.maximum(est, 0)

    def probe_once(self) -> list[int]:
        """One sweep over all monitored sets; returns per-set miss counts."""
        row = self._probe_sweep()
        if self._quality_acc is not None:
            self._quality_acc.flush()
        return [int(v) for v in row]

    def sample(
        self,
        n_samples: int,
        wait_cycles: int = 0,
        fast_probe: bool = False,
    ) -> SampleTrace:
        """Run the PRIME - IDLE(wait_cycles) - PROBE loop ``n_samples`` times.

        ``fast_probe`` uses aggregate-latency probing (one timer read per
        set instead of per access), roughly tripling the probe rate.

        The trace matrix is preallocated and each sweep's miss-count row
        is written in place — no per-sweep Python lists anywhere on the
        path from probe to analysis.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        machine = self.process.machine
        tele = machine.telemetry
        traced = tele is not None and tele.tracer.enabled
        self.prime()
        samples = np.empty((n_samples, len(self.sets)), dtype=np.int64)
        times = np.empty(n_samples, dtype=np.int64)
        for i in range(n_samples):
            if wait_cycles:
                machine.idle(wait_cycles)
            times[i] = machine.clock.now
            if traced:
                with tele.tracer.span(
                    "probe",
                    cat="attack",
                    args={"sample": i, "sim_now": machine.clock.now},
                ):
                    if fast_probe:
                        row = self._fast_sweep()
                    else:
                        row = self._probe_sweep()
                tele.tracer.counter(
                    "probe.misses", {"misses": int(row.sum())}, cat="attack"
                )
            elif fast_probe:
                row = self._fast_sweep()
            else:
                row = self._probe_sweep()
            samples[i] = row
            if self.supervisor is not None:
                event = self.supervisor.observe(int((row > 0).sum()), row.size)
                if event is not None:
                    self._apply_recovery(event)
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter("probe.sweeps").inc(n_samples)
        if self._quality_acc is not None:
            self._quality_acc.flush()
        return SampleTrace(
            samples=samples,
            times=times,
            set_labels=[es.label or str(es.set_index) for es in self.sets],
        )

    def probe_duration_estimate(self, fast_probe: bool = False) -> int:
        """Cycles one full probe sweep takes, assuming all hits.

        Useful for choosing ``wait_cycles`` to hit a target probe rate.
        A ``fast_probe`` sweep pays the timer overhead once per *set*
        (one fence around each traversal) rather than once per access.
        """
        timing = self.process.machine.llc.timing
        n_accesses = sum(len(es) for es in self.sets)
        if fast_probe:
            return (
                n_accesses * timing.llc_hit_latency
                + len(self.sets) * timing.measure_overhead
            )
        per_access = timing.llc_hit_latency + timing.measure_overhead
        return n_accesses * per_access
