"""Eviction-set construction — the attacker's basic instrument.

An *eviction set* for a cache set is ``ways`` attacker-owned addresses that
all map to it; traversing the set replaces every other line there.  The spy
allocates **huge pages**, so it knows set-index bits of its own addresses
(bits 6..16 lie inside the 2 MB page), but the slice each address lands in
is decided by the undocumented hash — that part must be resolved by timing.

:class:`EvictionSetBuilder` does it the way real attacks do:

* ``reduce`` — group-testing reduction (Vila et al. style): shrink a pool
  that evicts a victim address down to a minimal ``ways``-element core.
* ``cluster_index`` — repeatedly reduce + classify-conflicts to split all
  candidate addresses of one set index into its per-slice conflict groups,
  giving one eviction set per (set index, slice).

Page-aligned buffers can only start in ``sets_per_slice / 64`` indices per
slice (the low 6 index bits are zero — Fig. 2 of the paper), i.e. 256 cache
sets total on the paper's machine: :func:`page_aligned_set_indices`.

:class:`OracleEvictionSetBuilder` produces identical grouping using
simulator introspection at zero simulated cost — used by experiments whose
subject is *not* eviction-set construction (e.g. channel capacity sweeps),
as recorded in EXPERIMENTS.md, reading one index table per key function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attack.timing import LatencyThreshold
from repro.mem.addrspace import HUGE_PAGE_SIZE
from repro.telemetry.quality import (
    quality_registry,
    record_evset_report,
    record_probe_margins,
)


def page_aligned_set_indices(geometry, page_size: int = 4096) -> list[int]:
    """Set indices a page-aligned address can map to (multiples of 64)."""
    step = page_size // geometry.line_size
    if step >= geometry.sets_per_slice:
        return [0]
    return list(range(0, geometry.sets_per_slice, step))


class EvictionSet:
    """A probe-ready set of attacker addresses mapping to one cache set.

    ``probe`` traverses the addresses in the reverse of the previous
    traversal (the classic zig-zag), which both measures interference since
    the last probe and re-primes the set for the next one.

    The addresses are stored once, in construction order; the traversal
    order is that order or its reverse, by the parity of :attr:`version`
    (the number of zig-zag traversals so far), so a flip is one integer
    add whatever the count.
    """

    def __init__(
        self,
        process,
        addrs: list[int],
        threshold: LatencyThreshold,
        set_index: int | None = None,
        label: str = "",
    ) -> None:
        if not addrs:
            raise ValueError("eviction set needs at least one address")
        self.process = process
        self._addrs = tuple(addrs)
        self.threshold = threshold
        self.set_index = set_index
        self.label = label
        self._telemetry = process.machine.telemetry
        #: Physical addresses in the stored order, translated on first use
        #: (translation is deterministic and the pages stay mapped).  One
        #: traversal is then one batched machine call over them or their
        #: reverse, instead of one Python call per line.
        self._paddrs: np.ndarray | None = None
        #: Zig-zag traversals so far.  Odd means the current order is the
        #: stored one reversed; sweep-level callers key their cached
        #: concatenated traversal arrays on this parity.
        self.version = 0

    def __len__(self) -> int:
        return len(self._addrs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvictionSet({self.label or self.set_index}, n={len(self._addrs)})"

    @property
    def addrs(self) -> list[int]:
        """Virtual addresses in current traversal order."""
        return list(self._addrs[::-1] if self.version & 1 else self._addrs)

    def _oriented(self, parity: int) -> np.ndarray:
        """Physical addresses in stored order (0) or reversed (1)."""
        if self._paddrs is None:
            translate = self.process.addrspace.translate
            self._paddrs = np.fromiter(
                (translate(addr) for addr in self._addrs),
                np.int64,
                count=len(self._addrs),
            )
        return self._paddrs[::-1] if parity else self._paddrs

    def probe_order(self) -> np.ndarray:
        """Physical addresses in the order the next probe uses: the
        reverse of the last traversal."""
        return self._oriented(~self.version & 1)

    def prime_order(self) -> np.ndarray:
        """Physical addresses in the order a prime uses: the current
        orientation, the one the last traversal went in."""
        return self._oriented(self.version & 1)

    def flip(self, times: int = 1) -> None:
        """Record ``times`` zig-zag traversals (O(1): a parity change)."""
        self.version += times

    def prime(self) -> None:
        """Fill the cache set with our lines (untimed traversal).  A
        multi-set prime goes through :func:`prime_sets` instead."""
        self.process.machine.cpu_access_many(self.prime_order())

    def probe(self) -> int:
        """Timed zig-zag traversal; returns the number of misses seen.

        One batched machine call covers the whole traversal — the classic
        per-line loop collapsed into :meth:`Machine.cpu_access_many`.  The
        timing builder's :meth:`EvictionSetBuilder.conflicts` probes one
        set this way, and it is the per-set reference a multi-set
        :class:`~repro.attack.primeprobe.SetSweep` is pinned against.
        """
        lats = self.process.machine.cpu_access_many(self.probe_order(), timed=True)
        self.flip()
        misses = int((lats > self.threshold.threshold).sum())
        tele = self._telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.histogram("probe.latency_cycles").observe_many(lats)
            tele.metrics.counter("probe.accesses").inc(len(self))
            if misses:
                tele.metrics.counter("probe.misses").inc(misses)
            registry = quality_registry(tele)
            if registry is not None:
                record_probe_margins(registry, lats, self.threshold.threshold)
        return misses


def prime_sets(process, sets) -> None:
    """Prime every set of ``sets``, in order, as one untimed traversal.

    The untimed counterpart of a :class:`~repro.attack.primeprobe.SetSweep`:
    the concatenation of each set's :meth:`EvictionSet.prime_order` goes
    out as one :meth:`Machine.cpu_access_many` call.  Back-to-back
    untimed traversals leave no clock gap between them, and the batched
    call equals the per-access loop, so this is exactly ``for es in
    sets: es.prime()``.  A set listed twice is traversed twice.  Like
    :meth:`EvictionSet.prime`, it flips no set and records no telemetry.
    """
    process.machine.cpu_access_many(np.concatenate([es.prime_order() for es in sets]))


@dataclass
class ClusterReport:
    """Outcome of clustering one set index, with degradation accounting.

    Under injected noise, group-testing reductions can fail spuriously;
    rather than silently returning fewer groups, the builder reports how
    many of the expected per-slice groups it found (``confidence``) and how
    many reduction retries the noise cost, so consumers can decide whether
    a partial monitor list is good enough to attack with.
    """

    set_index: int
    groups: list["EvictionSet"] = field(default_factory=list)
    expected: int = 0
    retries: int = 0
    failed_reductions: int = 0

    @property
    def confidence(self) -> float:
        """Fraction of expected conflict groups actually resolved."""
        if self.expected <= 0:
            return 1.0
        return min(1.0, len(self.groups) / self.expected)


class EvictionSetBuilder:
    """Timing-only construction of eviction sets from huge-page memory.

    ``reduce_attempts`` bounds retry-with-backoff around failed group-test
    reductions.  ``None`` (the default) resolves to 1 on a quiet machine —
    the historical single-shot behaviour, bit-identical to older builds —
    and to 3 when the machine carries an active fault plan, where spurious
    reduction failures are expected and worth retrying.
    """

    #: Base idle-cycles backoff before a reduction retry (doubles per retry).
    RETRY_BACKOFF_CYCLES = 50_000

    def __init__(
        self,
        process,
        threshold: LatencyThreshold,
        huge_pages: int = 16,
        ways: int | None = None,
        reduce_attempts: int | None = None,
    ) -> None:
        self.process = process
        machine = process.machine
        self.geometry = machine.llc.geometry
        self.ways = ways or self.geometry.ways
        self.threshold = threshold
        self.n_huge_pages = huge_pages
        self.base = process.mmap_huge(huge_pages)
        self._line = self.geometry.line_size
        if reduce_attempts is None:
            reduce_attempts = 3 if getattr(machine, "faults", None) is not None else 1
        if reduce_attempts < 1:
            raise ValueError(f"reduce_attempts must be >= 1, got {reduce_attempts}")
        self.reduce_attempts = reduce_attempts

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def candidates(self, set_index: int) -> list[int]:
        """All addresses in our huge pages with the given set index."""
        sets_per_slice = self.geometry.sets_per_slice
        if not 0 <= set_index < sets_per_slice:
            raise ValueError(f"set_index {set_index} out of range")
        end = self.base + self.n_huge_pages * HUGE_PAGE_SIZE
        span = sets_per_slice * self._line
        return list(range(self.base + set_index * self._line, end, span))

    # ------------------------------------------------------------------
    # Timing primitives
    # ------------------------------------------------------------------
    def evicts(self, addrs: list[int], victim: int) -> bool:
        """Does traversing ``addrs`` evict ``victim``?  (access, traverse,
        time the re-access).

        The traversal goes through one batched machine call — semantically
        one :meth:`Process.access` per address, in order — because group
        testing issues O(pool log pool) of these and the per-call Python
        overhead dominated construction cost.
        """
        process = self.process
        process.access(victim)
        if addrs:
            process.access_many(
                np.fromiter(addrs, np.int64, count=len(addrs))
            )
        return self.threshold.is_miss(process.timed_access(victim))

    def reduce(self, pool: list[int], victim: int) -> list[int] | None:
        """Group-testing reduction to a minimal eviction set for ``victim``.

        Returns ``ways`` addresses that conflict with ``victim``, or None if
        the pool doesn't contain enough same-set addresses.
        """
        working = list(pool)
        if not self.evicts(working, victim):
            return None
        while len(working) > self.ways:
            n_chunks = self.ways + 1
            chunk_size = -(-len(working) // n_chunks)
            for start in range(0, len(working), chunk_size):
                trial = working[:start] + working[start + chunk_size:]
                if trial and self.evicts(trial, victim):
                    working = trial
                    break
            else:
                # No chunk removable: pool has barely more than `ways`
                # same-set members spread across every chunk.  Fall back to
                # one-at-a-time removal.
                reduced = False
                for i in range(len(working)):
                    trial = working[:i] + working[i + 1:]
                    if trial and self.evicts(trial, victim):
                        working = trial
                        reduced = True
                        break
                if not reduced:
                    return None
        return working if self.evicts(working, victim) else None

    def reduce_with_retry(
        self, pool: list[int], victim: int
    ) -> tuple[list[int] | None, int]:
        """:meth:`reduce` with bounded retry-with-backoff.

        A reduction that fails under noise (a jittered measurement
        misclassifying one eviction test) often succeeds on a quieter
        retry; each retry first idles exponentially longer to let
        in-flight interference drain.  Returns ``(core, retries_used)``.
        """
        retries = 0
        for attempt in range(self.reduce_attempts):
            if attempt:
                self.process.compute(self.RETRY_BACKOFF_CYCLES << (attempt - 1))
                retries += 1
            core = self.reduce(list(pool), victim)
            if core is not None:
                return core, retries
        return None, retries

    def conflicts(self, es: EvictionSet, addr: int) -> bool:
        """Does ``addr`` map to the same cache set as ``es``?"""
        es.prime()
        self.process.access(addr)
        return es.probe() > 0

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------
    def cluster_index(
        self, set_index: int, n_groups: int | None = None
    ) -> list[EvictionSet]:
        """Split one set index's candidates into per-slice conflict groups.

        Returns up to ``n_groups`` (default: slice count) eviction sets.
        Group order is arbitrary — the attacker cannot name slices, only
        distinguish them.
        """
        return self.cluster_index_report(set_index, n_groups).groups

    def cluster_index_report(
        self, set_index: int, n_groups: int | None = None
    ) -> ClusterReport:
        """:meth:`cluster_index` with partial-result accounting.

        The returned report carries whatever groups were resolved plus a
        confidence score (groups found / groups expected) and retry
        counts, so a noisy run degrades to a smaller monitor list instead
        of an exception.

        Under a randomized index backend (``keyed``/``skewed`` — see
        :mod:`repro.cache.backends`) the huge-page set-index bits no
        longer predict placement, so a "set index" pool scatters over
        many cache sets and most reductions fail: the same accounting
        then reports the attacker's *degraded* reality (low confidence,
        high ``failed_reductions``) rather than raising — exactly what
        the ``randomized-cache`` experiment measures.
        """
        n_groups = n_groups or self.geometry.n_slices
        report = ClusterReport(set_index=set_index, expected=n_groups)
        remaining = self.candidates(set_index)
        groups = report.groups
        while remaining and len(groups) < n_groups:
            victim = remaining.pop(0)
            core, retries = self.reduce_with_retry(remaining, victim)
            report.retries += retries
            if core is None:
                report.failed_reductions += 1
                continue
            es = EvictionSet(
                self.process,
                core,
                self.threshold,
                set_index=set_index,
                label=f"idx{set_index}.g{len(groups)}",
            )
            core_set = set(core)
            keep = []
            for addr in remaining:
                if addr in core_set:
                    continue
                if not self.conflicts(es, addr):
                    keep.append(addr)
            remaining = keep
            groups.append(es)
        registry = quality_registry(self.process.machine.telemetry)
        if registry is not None:
            record_evset_report(registry, report)
        return report

    def build_page_aligned_groups(
        self, block: int = 0, page_size: int = 4096
    ) -> list[EvictionSet]:
        """Eviction sets for every (page-aligned set index + block, slice).

        ``block`` shifts the target from buffer block 0 to block ``k`` (the
        paper constructs these to read packet *sizes*).
        """
        groups: list[EvictionSet] = []
        for index in page_aligned_set_indices(self.geometry, page_size):
            target = (index + block) % self.geometry.sets_per_slice
            groups.extend(self.cluster_index(target))
        return groups


class OracleEvictionSetBuilder:
    """Eviction sets grouped by simulator ground truth (zero probe cost).

    The returned sets are *real* attacker addresses in the simulated cache —
    only the grouping labour is skipped.  ``label`` encodes the true
    (slice, set) for experiment bookkeeping.

    Every lookup reads a row of an index table: a flat set's first ``ways``
    huge-page line numbers in vaddr order (int32, ``-1`` pads a short set).
    The address-bit table (``mapping.modulo_flats``) names (set index,
    slice) groups on every backend, as the paper's huge-page spy would; the
    live table (``mapping.flats_of_many``, rebuilt when the mapping epoch
    moves) serves :meth:`group_for_flat`.  Under a transparent mapping they
    are one table.
    """

    def __init__(
        self,
        process,
        threshold: LatencyThreshold,
        huge_pages: int = 16,
        ways: int | None = None,
    ) -> None:
        self.process = process
        machine = process.machine
        self.llc = machine.llc
        self.geometry = machine.llc.geometry
        self.ways = ways or self.geometry.ways
        self.threshold = threshold
        self.n_huge_pages = huge_pages
        self.base = process.mmap_huge(huge_pages)
        self._line = self.geometry.line_size
        self._named: np.ndarray | None = None
        self._live: np.ndarray | None = None
        self._live_epoch = -1

    #: Lines per table-build step.  Each temporary of a step is then
    #: 64 KB.  Whole-page steps (256 KB temporaries) built no faster and
    #: raised the benchmark's peak RSS by 3-6%; smaller steps build slower.
    _BUILD_LINES = 8192

    def _build_table(self, key) -> np.ndarray:
        """The index table of one key function ``(paddrs, lines) -> flats``.

        Huge pages are physically contiguous, so each step of lines inside
        one page costs one translation, one ``key`` call and one stable
        argsort.  A line's rank in its set is the count from earlier steps
        plus its position in this step's group.  Later steps hold only
        higher vaddrs, so the build stops once every set is full.
        """
        n_flats, ways = self.geometry.total_sets, self.ways
        step = min(self._BUILD_LINES, HUGE_PAGE_SIZE // self._line)
        offsets = np.arange(step, dtype=np.int64) * self._line
        positions = np.arange(step)
        table = np.full((n_flats, ways), -1, dtype=np.int32)
        seen = np.zeros(n_flats, dtype=np.int64)
        n_lines = self.n_huge_pages * HUGE_PAGE_SIZE // self._line
        for first in range(0, n_lines, step):
            vaddr = self.base + first * self._line
            paddrs = self.process.addrspace.translate(vaddr) + offsets
            flats = key(paddrs, paddrs >> self.geometry.offset_bits)
            order = np.argsort(flats, kind="stable")
            grouped = flats[order]
            counts = np.bincount(flats, minlength=n_flats)
            starts = np.cumsum(counts) - counts
            rank = (seen - starts)[grouped] + positions
            keep = rank < ways
            table[grouped[keep], rank[keep]] = order[keep] + first
            seen += counts
            if seen.min() >= ways:
                break
        return table

    def _named_table(self) -> np.ndarray:
        if self._named is None:
            self._named = self._build_table(self.llc.mapping.modulo_flats)
        return self._named

    def _live_table(self) -> np.ndarray:
        llc = self.llc
        if llc.mapping.index_transparent:
            return self._named_table()
        if self._live_epoch != llc.mapping_epoch:
            self._live = self._build_table(llc.mapping.flats_of_many)
            self._live_epoch = llc.mapping_epoch
        return self._live

    def _group(
        self, row: np.ndarray, set_index: int | None, label: str, name: str
    ) -> EvictionSet:
        """The eviction set of one table row; a short row raises."""
        if row[-1] < 0:
            raise RuntimeError(
                f"not enough huge-page candidates for {name} "
                f"({int((row >= 0).sum())} < {self.ways}); map more huge pages"
            )
        addrs = (self.base + row.astype(np.int64) * self._line).tolist()
        return EvictionSet(self.process, addrs, self.threshold, set_index, label)

    def groups_for_index(self, set_index: int) -> dict[int, EvictionSet]:
        """slice id -> eviction set, for one set index, in ascending slice
        order; a slice with fewer than ``ways`` candidates is left out."""
        rows = self._named_table()[set_index :: self.geometry.sets_per_slice]
        return {
            slice_id: self.group_for(set_index, slice_id)
            for slice_id, row in enumerate(rows)
            if row[-1] >= 0
        }

    def group_for(self, set_index: int, slice_id: int) -> EvictionSet:
        """The eviction set covering one exact (set index, slice)."""
        row = self._named_table()[slice_id * self.geometry.sets_per_slice + set_index]
        label = f"idx{set_index}.s{slice_id}"
        return self._group(row, set_index, label, f"idx {set_index} slice {slice_id}")

    def group_for_flat(self, flat: int, label: str = "") -> EvictionSet:
        """The eviction set covering one flat set id, however it's mapped.

        Works for every index backend — the grouping consults the live
        mapping, not address bits — and is the monitor-placement oracle
        the ``randomized-cache`` experiment uses for its sequence and
        covert legs (construction *cost* is measured separately by the
        timing-based builder).  Unlabelled under a transparent mapping, it
        is the :meth:`group_for` set, with its label and ``set_index``.
        """
        if not label and self.llc.mapping.index_transparent:
            sets_per_slice = self.geometry.sets_per_slice
            return self.group_for(flat % sets_per_slice, flat // sets_per_slice)
        row = self._live_table()[flat]
        return self._group(row, None, label or f"flat{flat}", f"flat set {flat}")

    def build_page_aligned_groups(
        self, block: int = 0, page_size: int = 4096
    ) -> list[EvictionSet]:
        """Oracle-grouped counterpart of the timing-based bulk builder."""
        groups: list[EvictionSet] = []
        for index in page_aligned_set_indices(self.geometry, page_size):
            target = (index + block) % self.geometry.sets_per_slice
            groups.extend(self.groups_for_index(target).values())
        return groups
