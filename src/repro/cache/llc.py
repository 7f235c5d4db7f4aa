"""Sliced, physically-indexed last-level cache with DDIO write allocation.

The LLC is the meeting point of the attack: inbound packets are DMA'd into
it by DDIO, the spy's eviction sets live in it, and the defense partitions
it.  Three access paths exist:

* :meth:`SlicedLLC.cpu_access` — loads/stores from a CPU process (spy,
  victim, driver).  Misses fill a CPU-origin line.
* :meth:`SlicedLLC.io_write` — inbound DMA.  With DDIO enabled this
  allocates directly in the cache (at most ``ddio.write_allocate_ways`` I/O
  lines per set, but allocations may still evict CPU lines); with DDIO
  disabled it goes to DRAM and invalidates any cached copy.
* :meth:`SlicedLLC.flush` — CLFLUSH, used by some attack variants.

Since the engine refactor, :class:`SlicedLLC` is a thin *policy façade*
over :class:`repro.cache.engine.CacheEngine`, which holds every set's
tags, flag bits and LRU stamps in flat packed arrays.  The façade owns
what the engine deliberately does not: DDIO way caps, partition
victim-selection hooks, telemetry hooks, :class:`CacheStats` attribution
and DRAM-traffic accounting.  On top of the scalar paths it exposes
:meth:`access_many`, the batched kernel PRIME+PROBE sweeps ride
(see PERFORMANCE.md), and a memoized per-line slice/set decomposition so
the complex hash is evaluated once per line ever, not once per access.

An optional *partition* object (the Section VII defense) takes over victim
selection; see :mod:`repro.defense.partitioning`.  The pre-engine model is
preserved verbatim in :mod:`repro.cache.legacy` for differential testing.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator

import numpy as np

from repro.cache.backends import IndexMapping, make_mapping
from repro.cache.cacheset import LINE_DIRTY, LINE_IO
from repro.cache.engine import CacheEngine
from repro.cache.slicehash import IntelComplexHash, SliceHash
from repro.cache.stats import CacheStats
from repro.core.config import CacheGeometry, DDIOConfig, TimingParams
from repro.mem.physmem import DramTraffic


class SetView:
    """A per-set façade over the packed engine, API-compatible with the
    legacy :class:`~repro.cache.cacheset.CacheSet`.

    Consumers that reason about one set at a time — the L1 hierarchy's
    dirty-writeback touch, tests, introspection — keep working unchanged;
    every operation executes on the shared flat arrays.
    """

    __slots__ = ("engine", "flat", "ways")

    def __init__(self, engine: CacheEngine, flat: int) -> None:
        self.engine = engine
        self.flat = flat
        self.ways = engine.ways

    def __len__(self) -> int:
        return self.engine.size(self.flat)

    def __contains__(self, line_addr: int) -> bool:
        return self.engine.contains(self.flat, line_addr)

    @property
    def io_count(self) -> int:
        return self.engine.io_count(self.flat)

    @property
    def cpu_count(self) -> int:
        return self.engine.cpu_count(self.flat)

    @property
    def lines(self) -> dict[int, int]:
        """line -> flags in LRU-to-MRU order (recency order, like legacy)."""
        return dict(self.engine.lines_in_lru_order(self.flat))

    def touch(self, line_addr: int, set_dirty: bool = False) -> bool:
        return self.engine.touch(self.flat, line_addr, set_dirty=set_dirty)

    def flags_of(self, line_addr: int) -> int | None:
        return self.engine.flags_of(self.flat, line_addr)

    def insert(self, line_addr: int, flags: int) -> tuple[int, int] | None:
        return self.engine.insert(self.flat, line_addr, flags)

    def evict_lru(self) -> tuple[int, int]:
        return self.engine.evict_lru(self.flat)

    def evict_lru_of(self, io: bool) -> tuple[int, int] | None:
        return self.engine.evict_lru_of(self.flat, io)

    def invalidate(self, line_addr: int) -> int | None:
        return self.engine.invalidate(self.flat, line_addr)

    def mark_io(self, line_addr: int) -> None:
        self.engine.mark_io(self.flat, line_addr)

    def occupancy(self) -> tuple[int, int]:
        return self.cpu_count, self.io_count


class _SetViews:
    """Lazy indexable sequence of :class:`SetView` (``llc.sets[flat]``)."""

    __slots__ = ("engine",)

    def __init__(self, engine: CacheEngine) -> None:
        self.engine = engine

    def __len__(self) -> int:
        return self.engine.n_sets

    def __getitem__(self, flat: int) -> SetView:
        if not -self.engine.n_sets <= flat < self.engine.n_sets:
            raise IndexError(flat)
        return SetView(self.engine, flat % self.engine.n_sets)

    def __iter__(self) -> Iterator[SetView]:
        for flat in range(self.engine.n_sets):
            yield SetView(self.engine, flat)


class SlicedLLC:
    """The shared last-level cache of the simulated machine."""

    def __init__(
        self,
        geometry: CacheGeometry | None = None,
        ddio: DDIOConfig | None = None,
        timing: TimingParams | None = None,
        traffic: DramTraffic | None = None,
        slice_hash: SliceHash | None = None,
        backend: str | IndexMapping = "modulo",
        seed: int = 0,
    ) -> None:
        self.geometry = geometry or CacheGeometry()
        self.ddio = ddio or DDIOConfig()
        self.timing = timing or TimingParams()
        self.traffic = traffic or DramTraffic()
        self.slice_hash = slice_hash or IntelComplexHash(self.geometry.n_slices)
        if self.slice_hash.n_slices != self.geometry.n_slices:
            raise ValueError(
                "slice hash built for a different slice count: "
                f"{self.slice_hash.n_slices} != {self.geometry.n_slices}"
            )
        #: Index backend: how a line address becomes a flat set id (and,
        #: for skewed designs, which ways are candidate victims).  See
        #: :mod:`repro.cache.backends`.
        if isinstance(backend, IndexMapping):
            self.mapping = backend
        else:
            self.mapping = make_mapping(
                backend, self.geometry, self.slice_hash, seed=seed
            )
        #: Epoch counter, bumped on every re-key.  Consumers holding
        #: decomposition caches key on it (the rx path's
        #: :class:`~repro.nic.driver.RxTemplates`); the access paths below
        #: do not need to (stale ``decomp`` hints are ignored when the
        #: mapping is epochal).
        self.mapping_epoch = 0
        self._epochal = self.mapping.epoch_period > 0
        self._epoch_period = self.mapping.epoch_period
        self._access_count = 0
        self._skewed = self.mapping.n_partitions > 1
        if self._skewed and self.geometry.ways % self.mapping.n_partitions:
            raise ValueError(
                f"backend partitions ({self.mapping.n_partitions}) must "
                f"divide ways ({self.geometry.ways})"
            )
        if self._skewed and self._epochal:
            raise ValueError(
                "a skewed backend cannot re-key: the re-key places lines "
                "across all of a set's ways, not a partition's"
            )
        self._part_ways = self.geometry.ways // self.mapping.n_partitions
        self.engine = CacheEngine(self.geometry.total_sets, self.geometry.ways)
        self.sets = _SetViews(self.engine)
        self.stats = CacheStats()
        #: Observability: set by Machine when telemetry is installed; every
        #: hook below guards on ``is not None`` so the untelemetered hot
        #: path is unchanged.
        self.telemetry = None
        #: Defense hook: when set, victim selection is delegated to the
        #: partition (see repro.defense.partitioning.AdaptivePartition).
        self.partition = None
        #: Optional callback fired on every I/O fill with the flat set id —
        #: used by experiments to record ground-truth packet placement.
        self.io_fill_hook: Callable[[int], None] | None = None
        #: Optional callback fired with the line address of every line that
        #: leaves the LLC — used for inclusive back-invalidation of L1s.
        self.evict_hook: Callable[[int], None] | None = None
        self._offset_bits = self.geometry.offset_bits
        self._set_mask = self.geometry.sets_per_slice - 1
        #: Memoized decomposition: line address -> flat set id.  The slice
        #: hash is pure, so each line is hashed at most once per LLC; every
        #: access path below goes through this memo, which removes the
        #: repeated ``slice_of`` evaluations the legacy ``flat_set_of``
        #: performed on the cpu_access/io_write hot paths.
        self._flat_memo: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Address decomposition
    # ------------------------------------------------------------------
    def set_index_of(self, paddr: int) -> int:
        """Set index within a slice (bits 6..16 for the default geometry)."""
        return (paddr >> self._offset_bits) & self._set_mask

    def slice_of(self, paddr: int) -> int:
        """Slice id from the complex hash."""
        return self.slice_hash.slice_of(paddr)

    def flat_set_of(self, paddr: int) -> int:
        """Flat set id under the active index backend (memoized per line;
        the memo is cleared whenever an epochal backend re-keys)."""
        line = paddr >> self._offset_bits
        flat = self._flat_memo.get(line)
        if flat is None:
            flat = self.mapping.flat_of(paddr, line)
            self._flat_memo[line] = flat
        return flat

    def line_addr_of(self, paddr: int) -> int:
        """Line-aligned address (tag identity used inside sets)."""
        return paddr >> self._offset_bits

    def decompose_many(self, paddrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``(flat_set, line)`` decomposition of an address array.

        One numpy pass through the slice hash — no per-address Python.
        Under an epochal backend the per-line memo fronts the mapping:
        batched callers cannot cache decompositions across calls there
        (a re-key would stale them), so without the memo every probe
        sweep would re-run the keyed permutation over the same handful
        of lines thousands of times per epoch.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        lines = paddrs >> self._offset_bits
        if self._epochal:
            memo = self._flat_memo
            line_list = lines.tolist()
            flats = np.empty(len(line_list), dtype=np.int64)
            missing = []
            for i, line in enumerate(line_list):
                flat = memo.get(line)
                if flat is None:
                    missing.append(i)
                else:
                    flats[i] = flat
            if missing:
                idx = np.asarray(missing, dtype=np.intp)
                fresh = self.mapping.flats_of_many(paddrs[idx], lines[idx])
                flats[idx] = fresh
                for i, flat in zip(missing, fresh.tolist()):
                    memo[line_list[i]] = flat
            return flats, lines
        return self.mapping.flats_of_many(paddrs, lines), lines

    # ------------------------------------------------------------------
    # Epoch re-keying (epochal backends only)
    # ------------------------------------------------------------------
    def accesses_until_rekey(self) -> int:
        """Accesses the current mapping still serves: the budget an rx
        burst (:meth:`rx_burst`) or a poll fast-forward
        (:meth:`repeat_hits`) must fit in.  ``sys.maxsize`` when the
        mapping is static, so the cut is one comparison on any backend."""
        if not self._epochal:
            return sys.maxsize
        return max(0, self._epoch_period - self._access_count)

    def _rekey(self, now: int) -> None:
        """Install fresh index keys and remap every resident line.

        A real CEASER relocates lines gradually across the epoch; the
        model applies the whole remap atomically at the epoch boundary,
        with exact accounting: each resident line is reinserted under
        the new mapping in LRU-to-MRU order (so relative recency
        survives into the new sets), and a line whose new set is
        already full evicts that set's LRU — the displaced line is
        *dropped* (written back if dirty).  The engine places the lines
        in closed form (:meth:`CacheEngine.reload`); drops are accounted
        here, in the order the reinsertion evicts them.
        ``MappingStats`` records remapped vs dropped counts per epoch;
        the property suite pins that they sum to the pre-re-key resident
        population.
        """
        if self.partition is not None:
            raise RuntimeError(
                "epoch re-keying cannot run with the partition defense "
                "installed (victim policies conflict); use a static backend "
                "or epoch=0"
            )
        engine = self.engine
        occ = np.flatnonzero(engine.tags != -1)
        occ = occ[np.argsort(engine.stamps[occ], kind="stable")]
        lines = engine.tags[occ]
        flags = engine.flags[occ]
        self.mapping.advance_epoch()
        self.mapping_epoch += 1
        # One vectorised pass maps every resident line under the fresh
        # keys and seeds the memo wholesale.
        flats = self.mapping.flats_of_many(lines << self._offset_bits, lines)
        self._flat_memo.clear()
        self._flat_memo.update(zip(lines.tolist(), flats.tolist()))
        dropped = engine.reload(flats, lines, flags)
        n_dirty = int((flags[dropped] & LINE_DIRTY != 0).sum())
        self.stats.invalidations += len(dropped)
        self.stats.writebacks += n_dirty
        self.traffic.writes += n_dirty
        if self.evict_hook is not None:
            for line in lines[dropped].tolist():
                self.evict_hook(line)
        stats = self.mapping.stats
        stats.epochs += 1
        stats.lines_remapped += len(lines) - len(dropped)
        stats.lines_dropped += len(dropped)

    # ------------------------------------------------------------------
    # CPU path
    # ------------------------------------------------------------------
    def cpu_access(self, paddr: int, write: bool = False, now: int = 0) -> tuple[bool, int]:
        """Access ``paddr`` from a CPU; returns ``(hit, latency_cycles)``."""
        if self._epochal:
            if self._access_count >= self._epoch_period:
                self._rekey(now)
                self._access_count = 0
            self._access_count += 1
        line = paddr >> self._offset_bits
        flat = self._flat_memo.get(line)
        if flat is None:
            flat = self.flat_set_of(paddr)
        if self.engine.touch(flat, line, set_dirty=write):
            self.stats.cpu_hits += 1
            return True, self.timing.llc_hit_latency
        self.stats.cpu_misses += 1
        self.traffic.reads += 1
        self._fill_cpu(flat, line, write, now)
        return False, self.timing.llc_miss_latency

    def _way_range(self, line: int) -> tuple[int, int]:
        """Candidate-way range of a line under a skewed backend."""
        p = self.mapping.partition_of(line)
        return p * self._part_ways, (p + 1) * self._part_ways

    def _fill_cpu(self, flat: int, line: int, write: bool, now: int) -> None:
        flags = LINE_DIRTY if write else 0
        if self.partition is not None:
            # The partition defense owns victim selection outright; a
            # skewed backend's way restriction is superseded by it.
            evicted = self.partition.victim_for_cpu_fill(self, flat, now)
            if evicted is not None:
                self._retire(evicted, by_io=False)
            self.engine.insert(flat, line, flags)
            self.partition.after_fill(self, flat, now)
            return
        if self._skewed:
            evicted = self.engine.insert_in(flat, line, flags, *self._way_range(line))
        else:
            evicted = self.engine.insert(flat, line, flags)
        if evicted is not None:
            self._retire(evicted, by_io=False)

    def access_many(
        self,
        paddrs: np.ndarray,
        write: bool = False,
        now: int = 0,
        decomp: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`cpu_access`: returns ``(hits, latencies)`` arrays.

        One engine call resolves every address; sets in which every
        accessed line is already resident are touched with vectorised
        kernels, and only sets containing at least one miss fall back to
        the exact scalar path (in original access order, so per-set
        behaviour — eviction decisions, LRU order, stats — is identical to
        issuing the accesses one by one).  Accesses to different sets are
        independent, so the cross-set reordering this implies is
        unobservable; the differential harness pins that equivalence.

        ``decomp`` lets callers that replay a fixed address sequence
        (eviction-set sweeps) pass the cached ``(flats, lines)``
        decomposition instead of re-hashing every call.  Under an
        epochal backend the hint is ignored — a cached decomposition
        may predate a re-key — and a batch a re-key would land inside
        is replayed through the exact scalar path, so the re-key fires
        at the precise access it would in a sequential loop.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        n = len(paddrs)
        hit_latency = self.timing.llc_hit_latency
        if n == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        epochal = self._epochal
        if epochal:
            decomp = None
            if self._access_count >= self._epoch_period:
                self._rekey(now)
                self._access_count = 0
            if n > self._epoch_period - self._access_count:
                # Mid-batch re-key: interleaving is observable, go scalar.
                hits = np.empty(n, dtype=bool)
                lats = np.empty(n, dtype=np.int64)
                for i, paddr in enumerate(paddrs.tolist()):
                    hits[i], lats[i] = self.cpu_access(paddr, write=write, now=now)
                return hits, lats
            # No re-key can land inside this batch.  The all-hit and
            # clean-set paths below count their accesses explicitly; the
            # miss-set fallback counts through cpu_access itself.
        flats, lines = decomp if decomp is not None else self.decompose_many(paddrs)
        hit, ways = self.engine.lookup_many(flats, lines)
        if hit.all():
            if epochal:
                self._access_count += n
            self.engine.touch_many(flats, ways, set_dirty=write)
            self.stats.cpu_hits += n
            return (
                np.ones(n, dtype=bool),
                np.full(n, hit_latency, dtype=np.int64),
            )
        hits = np.empty(n, dtype=bool)
        lats = np.empty(n, dtype=np.int64)
        miss_sets = np.unique(flats[~hit])
        scalar = np.isin(flats, miss_sets)
        for i in np.flatnonzero(scalar):
            hits[i], lats[i] = self.cpu_access(int(paddrs[i]), write=write, now=now)
        clean = ~scalar
        n_clean = int(clean.sum())
        if n_clean:
            if epochal:
                self._access_count += n_clean
            self.engine.touch_many(flats[clean], ways[clean], set_dirty=write)
            self.stats.cpu_hits += n_clean
            hits[clean] = True
            lats[clean] = hit_latency
        return hits, lats

    def repeat_hits(
        self,
        paddrs: np.ndarray,
        repeats: int,
        decomp: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Apply ``repeats`` back-to-back reads of lines that are all resident.

        Exactly what ``repeats`` consecutive :meth:`access_many` calls over
        the same lines leave behind when every access hits: hits never
        evict, fill, or consult the partition and hooks, so they add
        ``n * repeats`` CPU hits (and epoch accesses) and, since every
        repetition restamps every line, only the last one's stamps
        survive.  ``paddrs`` is in that last repetition's order; earlier
        ones may visit the same lines in any order (a zig-zag sweep
        alternates).  Raises if a line is not resident or a re-key would
        fall inside the repetitions, the two things that would make one
        of them miss.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        n = len(paddrs) * repeats
        if n > self.accesses_until_rekey():
            raise ValueError(
                f"{n} repeated accesses cross the re-key "
                f"{self.accesses_until_rekey()} accesses ahead"
            )
        if self._epochal:
            decomp = None  # may predate a re-key; recompute below
        flats, lines = decomp if decomp is not None else self.decompose_many(paddrs)
        hit, ways = self.engine.lookup_many(flats, lines)
        if not hit.all():
            raise ValueError("repeat_hits needs every line resident")
        self.engine.touch_many(flats, ways, repeats=repeats)
        self.stats.cpu_hits += n
        if self._epochal:
            self._access_count += n

    # ------------------------------------------------------------------
    # I/O (DMA) path
    # ------------------------------------------------------------------
    def io_write(self, paddr: int, now: int = 0) -> None:
        """Inbound DMA write of one cache line."""
        if self._epochal:
            if self._access_count >= self._epoch_period:
                self._rekey(now)
                self._access_count = 0
            self._access_count += 1
        engine = self.engine
        line = paddr >> self._offset_bits
        flat = self._flat_memo.get(line)
        if flat is None:
            flat = self.flat_set_of(paddr)
        if not self.ddio.enabled:
            # Direct to DRAM; snoop-invalidate any cached copy.
            self.traffic.writes += 1
            if engine.invalidate(flat, line) is not None:
                self.stats.invalidations += 1
                if self.evict_hook is not None:
                    self.evict_hook(line)
                if self.partition is not None:
                    self.partition.after_fill(self, flat, now)
            return
        if engine.contains(flat, line):
            engine.mark_io(flat, line)
            self.stats.io_hits += 1
            if self.partition is not None:
                self.partition.after_fill(self, flat, now)
            return
        self.stats.io_fills += 1
        if self.io_fill_hook is not None:
            self.io_fill_hook(flat)
        if self.telemetry is not None:
            self.telemetry.on_dma_fill()
        if self.partition is not None:
            evicted = self.partition.victim_for_io_fill(self, flat, now)
            if evicted is not None:
                self._retire(evicted, by_io=True)
            engine.insert(flat, line, LINE_IO | LINE_DIRTY)
            self.partition.after_fill(self, flat, now)
            return
        # Vanilla DDIO: cap I/O lines per set, but victims may be CPU lines.
        if self._skewed:
            # The I/O way cap stays set-wide (DDIO limits *how many* I/O
            # lines live in a set, not where); the fill itself may only
            # displace one of the line's candidate ways.
            if engine.io_count(flat) >= self.ddio.write_allocate_ways:
                evicted = engine.evict_lru_of(flat, io=True)
                if evicted is not None:
                    self._retire(evicted, by_io=True)
            evicted = engine.insert_in(
                flat, line, LINE_IO | LINE_DIRTY, *self._way_range(line)
            )
            if evicted is not None:
                self._retire(evicted, by_io=True)
            return
        if engine.io_count(flat) >= self.ddio.write_allocate_ways:
            evicted = engine.evict_lru_of(flat, io=True)
            if evicted is not None:
                self._retire(evicted, by_io=True)
        elif engine.size(flat) >= engine.ways:
            self._retire(engine.evict_lru(flat), by_io=True)
        engine.insert(flat, line, LINE_IO | LINE_DIRTY)

    def io_write_many(
        self,
        paddrs: np.ndarray,
        now: int = 0,
        decomp: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Batched :meth:`io_write`: one inbound-DMA burst, one engine call.

        Semantically a loop of ``io_write`` over ``paddrs`` in order.  The
        vectorised kernel (:meth:`CacheEngine.io_fill_many`) requires that
        no two writes land in the same set and that victim selection stays
        with the vanilla DDIO policy, so the call falls back to the exact
        scalar loop whenever a partition or an eviction hook is installed,
        or the batch contains duplicate sets.  The NIC's per-frame bursts
        (consecutive lines of one rx buffer) always map to distinct sets,
        so in practice the fallback only triggers under the defense.

        ``decomp`` optionally carries the caller's cached ``(flats,
        lines)`` decomposition of ``paddrs``.
        """
        n = len(paddrs)
        if n == 0:
            return
        if self.partition is not None or self.evict_hook is not None:
            for paddr in paddrs:
                self.io_write(int(paddr), now=now)
            return
        if self._epochal:
            decomp = None  # may predate a re-key; recompute below
            if self._access_count >= self._epoch_period:
                self._rekey(now)
                self._access_count = 0
            if n > self._epoch_period - self._access_count:
                # Mid-batch re-key: exact scalar ordering required.
                for paddr in paddrs:
                    self.io_write(int(paddr), now=now)
                return
        if self._skewed:
            # Way-restricted victim selection is not modelled by the
            # vectorised fill kernel; take the exact scalar path.
            for paddr in paddrs:
                self.io_write(int(paddr), now=now)
            return
        flats, lines = decomp if decomp is not None else self.decompose_many(paddrs)
        engine = self.engine
        if not self.ddio.enabled:
            # Direct to DRAM; snoop-invalidate any cached copies.
            if self._epochal:
                self._access_count += n
            self.traffic.writes += n
            hit, _ways = engine.lookup_many(flats, lines)
            # A line can repeat within the batch: the lookup is a pre-state
            # snapshot, so count only invalidations that actually happen.
            for i in np.flatnonzero(hit):
                if engine.invalidate(int(flats[i]), int(lines[i])) is not None:
                    self.stats.invalidations += 1
            return
        if self.ddio.write_allocate_ways < 1:
            # Degenerate cap: the scalar path's cap-eviction becomes a
            # no-op on io-free sets and its full-set insert evicts without
            # retirement accounting — semantics the kernel does not model.
            for paddr in paddrs:
                self.io_write(int(paddr), now=now)
            return
        if len(np.unique(flats)) != n:
            for paddr in paddrs:
                self.io_write(int(paddr), now=now)
            return
        if self._epochal:
            self._access_count += n
        resident, evicted_lines, evicted_flags = engine.io_fill_many(
            flats, lines, self.ddio.write_allocate_ways
        )
        n_hits = int(resident.sum())
        n_fills = n - n_hits
        self.stats.io_hits += n_hits
        if not n_fills:
            return
        self.stats.io_fills += n_fills
        if self.io_fill_hook is not None:
            for flat in flats[~resident].tolist():
                self.io_fill_hook(flat)
        if self.telemetry is not None:
            self.telemetry.on_dma_fill(n_fills)
        # Retire the evicted lines (all evicted by I/O fills).
        evicted = np.flatnonzero(evicted_lines != -1)
        if not len(evicted):
            return
        ev_flags = evicted_flags[evicted]
        dirty = int((ev_flags & LINE_DIRTY != 0).sum())
        self.stats.writebacks += dirty
        self.traffic.writes += dirty
        victims_io = (ev_flags & LINE_IO) != 0
        self.stats.io_evicted_io += int(victims_io.sum())
        n_cpu = int(len(evicted) - victims_io.sum())
        if n_cpu:
            self.stats.io_evicted_cpu += n_cpu
            if self.telemetry is not None:
                for i in evicted[~victims_io].tolist():
                    self.telemetry.on_io_evict_cpu(int(evicted_lines[i]))

    def rx_burst(
        self,
        flats: np.ndarray,
        lines: np.ndarray,
        kinds: np.ndarray,
        stamp_offs: np.ndarray,
        total_ops: int,
        folded_hits: int,
    ) -> None:
        """Apply a multi-frame rx burst's cache-op stream in one engine call.

        The NIC's drained-burst path (:meth:`repro.nic.nic.Nic.
        deliver_burst`) hands over the flattened footprint-op stream of
        many back-to-back frames — see :meth:`CacheEngine.rx_burst_apply`
        for the encoding and the round-by-rank application.
        ``folded_hits`` counts the driver re-touches of same-frame lines
        that were folded into ``stamp_offs`` (guaranteed hits, attributed
        here).  ``total_ops`` is the burst's LLC access count, the same
        as the per-frame path's.

        Raises, with no state touched, when :meth:`supports_rx_burst`
        does not hold or the burst would reach a re-key
        (:meth:`accesses_until_rekey`): a burst runs under one mapping,
        and the caller delivers the frame that reaches the re-key on its
        own.
        """
        if not self.supports_rx_burst():
            raise RuntimeError(
                "the rx burst kernel cannot model this cache policy "
                "(see SlicedLLC.supports_rx_burst)"
            )
        if total_ops > self.accesses_until_rekey():
            raise ValueError(
                f"{total_ops} burst accesses cross the re-key "
                f"{self.accesses_until_rekey()} accesses ahead"
            )
        pre_res, ev_pos, ev_lines, ev_flags = self.engine.rx_burst_apply(
            flats, lines, kinds, stamp_offs, total_ops, self.ddio.write_allocate_ways
        )
        if self._epochal:
            self._access_count += total_ops
        stats = self.stats
        fills = kinds == 0
        n_fill = int(fills.sum())
        n_fill_hits = int((pre_res & fills).sum())
        n_fills_new = n_fill - n_fill_hits
        n_cpu_ops = len(kinds) - n_fill
        n_cpu_hits = int((pre_res & ~fills).sum())
        n_cpu_miss = n_cpu_ops - n_cpu_hits
        stats.io_hits += n_fill_hits
        stats.io_fills += n_fills_new
        stats.cpu_hits += folded_hits + n_cpu_hits
        if n_cpu_miss:
            stats.cpu_misses += n_cpu_miss
            self.traffic.reads += n_cpu_miss
        if n_fills_new and self.telemetry is not None:
            self.telemetry.on_dma_fill(n_fills_new)
        if ev_pos is None:
            return
        dirty = int((ev_flags & LINE_DIRTY != 0).sum())
        stats.writebacks += dirty
        self.traffic.writes += dirty
        victims_io = (ev_flags & LINE_IO) != 0
        by_io = kinds[ev_pos] == 0
        stats.io_evicted_io += int((by_io & victims_io).sum())
        io_cpu = by_io & ~victims_io
        n_io_cpu = int(io_cpu.sum())
        if n_io_cpu:
            stats.io_evicted_cpu += n_io_cpu
            if self.telemetry is not None:
                for line in ev_lines[io_cpu].tolist():
                    self.telemetry.on_io_evict_cpu(int(line))
        stats.cpu_evicted_io += int((~by_io & victims_io).sum())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self, paddr: int) -> int:
        """CLFLUSH: invalidate (with writeback if dirty); returns latency."""
        line = paddr >> self._offset_bits
        flat = self._flat_memo.get(line)
        if flat is None:
            flat = self.flat_set_of(paddr)
        flags = self.engine.invalidate(flat, line)
        if flags is not None:
            self.stats.invalidations += 1
            if self.evict_hook is not None:
                self.evict_hook(line)
            if flags & LINE_DIRTY:
                self.stats.writebacks += 1
                self.traffic.writes += 1
        return self.timing.llc_hit_latency

    def invalidate_set_lines(self, flat_set: int, io: bool) -> int:
        """Invalidate all lines of one origin in a set (partition reshaping).

        Dirty lines are written back.  Returns the number invalidated.
        """
        victims = self.engine.lines_in_lru_order(flat_set, io=io)
        for line, _flags in victims:
            flags = self.engine.invalidate(flat_set, line)
            self.stats.invalidations += 1
            if self.evict_hook is not None:
                self.evict_hook(line)
            if flags is not None and flags & LINE_DIRTY:
                self.stats.writebacks += 1
                self.traffic.writes += 1
        return len(victims)

    def _retire(self, evicted: tuple[int, int], by_io: bool) -> None:
        """Account for an evicted line (writeback + attribution counters)."""
        line, flags = evicted
        if self.evict_hook is not None:
            self.evict_hook(line)
        if flags & LINE_DIRTY:
            self.stats.writebacks += 1
            self.traffic.writes += 1
        victim_is_io = bool(flags & LINE_IO)
        if by_io and victim_is_io:
            self.stats.io_evicted_io += 1
        elif by_io:
            self.stats.io_evicted_cpu += 1
            if self.telemetry is not None:
                self.telemetry.on_io_evict_cpu(line)
        elif victim_is_io:
            self.stats.cpu_evicted_io += 1

    def supports_rx_burst(self) -> bool:
        """Whether :meth:`rx_burst` models this cache's policy — the one
        list of what it covers: vanilla DDIO with an I/O way, no partition
        or per-line hook, and an unskewed (no way-restricted victims)
        index backend.  An epochal backend qualifies: each burst stays
        inside one mapping epoch (:meth:`accesses_until_rekey`)."""
        return (
            self.ddio.enabled
            and self.ddio.write_allocate_ways >= 1
            and self.partition is None
            and self.evict_hook is None
            and self.io_fill_hook is None
            and not self._skewed
        )

    # ------------------------------------------------------------------
    # Introspection (instrumentation / ground truth, not attacker-visible)
    # ------------------------------------------------------------------
    def is_resident(self, paddr: int) -> bool:
        """Whether the line holding ``paddr`` is currently cached."""
        line = paddr >> self._offset_bits
        return self.engine.contains(self.flat_set_of(paddr), line)

    def set_occupancy(self, flat_set: int) -> tuple[int, int]:
        """(cpu_lines, io_lines) resident in ``flat_set``."""
        return self.engine.cpu_count(flat_set), self.engine.io_count(flat_set)
