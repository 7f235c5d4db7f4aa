"""PRIME+PROBE monitoring over a list of eviction sets.

This is the Mastik-equivalent layer: given eviction sets for the cache sets
of interest, ``sample`` runs the PRIME - IDLE - PROBE loop and returns an
activity matrix (samples x sets of miss counts).  The probe *rate* — how
long the idle step waits — is the paper's central tuning knob: it must be
long enough that one packet's activity lands in one sample, and short
enough not to lose the temporal order of consecutive packets (Table I's
parameters: 8000 probes/s against 0.2 M packets/s).

The timed probe is described once, in :class:`SetSweep`: a *single*
batched machine call over the concatenation of every swept set's
traversal.  :meth:`Machine.cpu_access_many` preserves per-access event and
clock semantics, so the combined sweep is cycle-identical to the
historical per-line Python loop while running an order of magnitude
faster.  :class:`ProbeMonitor` is only the sampling loop around one sweep,
and every probe path records the same quality margin: each probed set's
tightest ``|latency - threshold|``.

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
    record_probe_margins,
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


class SetSweep:
    """The timed probe: one batched zig-zag sweep over fixed eviction sets.

    Every multi-set probe is this sweep: :class:`ProbeMonitor`'s (sequencer,
    discovery), the covert receiver's and the chaser's clock and size
    polls.  The concatenation of every set's traversal goes out as a single
    :meth:`Machine.cpu_access_many` call — access order, event timing and
    the clock are identical to calling ``es.probe()`` per set — and the
    telemetry :meth:`EvictionSet.probe` would have recorded per set is
    recorded once for the batch (histograms and counters are
    order-independent sums of the same integer latencies, so registry
    state is bit-identical).  Thresholds are read from the sets at
    construction; after a recalibration the caller builds a new sweep.
    """

    def __init__(self, process, sets: list[EvictionSet]) -> None:
        if not sets:
            raise ValueError("sweep over an empty set list")
        self.process = process
        self.sets = list(sets)
        lens = np.fromiter(
            (len(es) for es in self.sets), np.int64, count=len(self.sets)
        )
        #: Start of each set's traversal within one sweep.
        self.offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        #: Hit/miss threshold of every access in sweep order.
        self.thresholds = np.repeat(
            np.fromiter(
                (es.threshold.threshold for es in self.sets),
                np.float64,
                count=len(self.sets),
            ),
            lens,
        )
        #: Accesses per probe: every set's lines, once each.
        self.n_accesses = int(lens.sum())
        #: Concatenated ``(paddrs, flats, lines)`` per orientation
        #: signature (each set's flip parity).  A sweep flips every set
        #: together, so steady-state probing ping-pongs between two cached
        #: signatures and never re-concatenates.
        self._orders: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated next-probe ``(paddrs, flats, lines)``, cached."""
        key = bytes(es.version & 1 for es in self.sets)
        cached = self._orders.get(key)
        if cached is None:
            parts = [es.probe_order() for es in self.sets]
            cached = tuple(np.concatenate(column) for column in zip(*parts))
            if len(self._orders) >= 4:
                self._orders.clear()
            self._orders[key] = cached
        return cached

    def measure(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One timed sweep: per-set miss counts (int64), every access's
        latency and the miss mask, all in sweep order.  Records the
        ``probe.*`` metrics but leaves the quality margin to the caller."""
        machine = self.process.machine
        combined, flats, lines = self._arrays()
        lats = machine.cpu_access_many(combined, timed=True, decomp=(flats, lines))
        miss_mask = lats > self.thresholds
        counts = np.add.reduceat(miss_mask.astype(np.int64), self.offsets)
        for es in self.sets:
            es.flip()
        tele = machine.telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.histogram("probe.latency_cycles").observe_many(lats)
            tele.metrics.counter("probe.accesses").inc(len(combined))
            total_misses = int(miss_mask.sum())
            if total_misses:
                tele.metrics.counter("probe.misses").inc(total_misses)
        return counts, lats, miss_mask

    def probe(self) -> np.ndarray:
        """Timed zig-zag sweep; returns per-set miss counts (int64)."""
        counts, lats, _ = self.measure()
        registry = quality_registry(self.process.machine.telemetry)
        if registry is not None:
            record_probe_margins(registry, lats, self.thresholds, self.offsets)
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
                record_probe_margins(
                    registry, lats, self.thresholds, self.offsets, repeat=k
                )


class ProbeMonitor:
    """The PRIME - IDLE - PROBE loop around one :class:`SetSweep`, with
    batched quality recording and an optional in-flight supervisor."""

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
        self._sweep = SetSweep(process, self.sets)
        #: Lazily-created quality-hook batcher; flushed when probing stops.
        self._quality_acc: ProbeSweepAccumulator | None = None

    def __len__(self) -> int:
        return len(self.sets)

    def _flush_quality(self) -> None:
        if self._quality_acc is not None:
            self._quality_acc.flush()

    def _apply_recovery(self, event) -> None:
        """Swap in healed sets or refreshed thresholds, then re-prime.

        Margins so far are flushed against the thresholds they were
        measured with; the sweep and the batcher then start afresh."""
        if event.kind == "heal" and event.payload:
            self.sets = list(event.payload)
            self.supervisor.untrack_all()
            self.supervisor.track(*self.sets)
        self._flush_quality()
        self._sweep = SetSweep(self.process, self.sets)
        self._quality_acc = None
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

    def _probe_row(self) -> np.ndarray:
        """One sweep's per-set miss counts; its quality goes to the batcher."""
        row, lats, miss_mask = self._sweep.measure()
        registry = quality_registry(self.process.machine.telemetry)
        if registry is not None:
            acc = self._quality_acc
            if acc is None or acc.registry is not registry:
                acc = self._quality_acc = ProbeSweepAccumulator(
                    registry, self._sweep.thresholds, self._sweep.offsets
                )
            acc.add(lats, miss_mask, np.count_nonzero(miss_mask))
        return row

    def probe_once(self) -> list[int]:
        """One sweep over all monitored sets; returns per-set miss counts."""
        row = self._probe_row()
        self._flush_quality()
        return [int(v) for v in row]

    def sample(self, n_samples: int, wait_cycles: int = 0) -> SampleTrace:
        """Run the PRIME - IDLE(wait_cycles) - PROBE loop ``n_samples`` times.

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
                    row = self._probe_row()
                tele.tracer.counter(
                    "probe.misses", {"misses": int(row.sum())}, cat="attack"
                )
            else:
                row = self._probe_row()
            samples[i] = row
            if self.supervisor is not None:
                event = self.supervisor.observe(int((row > 0).sum()), row.size)
                if event is not None:
                    self._apply_recovery(event)
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter("probe.sweeps").inc(n_samples)
        self._flush_quality()
        return SampleTrace(
            samples=samples,
            times=times,
            set_labels=[es.label or str(es.set_index) for es in self.sets],
        )
