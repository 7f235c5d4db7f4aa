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
(see PERFORMANCE.md), :meth:`rx_burst`, which decomposes a multi-frame rx
burst's lines, applies the burst in one engine call and books the counts
it returns, and a per-line memo of the slice/set decomposition that
every path and backend goes through, so the index function is evaluated
once per line and mapping, not once per access.  The LLC is the one
place that maps lines to sets, and it does so only to place a line: the
engine's directory finds a resident one, so a hit, a flush, a DMA write
to a cached line and a dirty writeback decompose nothing, and callers
hand the access paths plain addresses.

An optional *partition* object (the Section VII defense) takes over victim
selection; see :mod:`repro.defense.partitioning`.  The pre-engine model is
preserved verbatim in :mod:`reference.cache` for differential testing.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable

import numpy as np

from repro.cache.backends import IndexMapping, make_mapping
from repro.cache.cacheset import LINE_DIRTY, LINE_IO
from repro.cache.engine import CacheEngine
from repro.cache.slicehash import IntelComplexHash, SliceHash
from repro.cache.stats import CacheStats
from repro.core.config import CacheGeometry, DDIOConfig, TimingParams
from repro.mem.physmem import DramTraffic


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
        #: Epoch counter, bumped on every re-key: the oracle builder's
        #: live index table and ``MonitorFactory``'s eviction-set cache key
        #: on it, and the experiments count re-keys with it.
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
        self.stats = CacheStats()
        #: Observability: set by Machine when telemetry is installed; every
        #: hook below guards on ``is not None`` so the untelemetered hot
        #: path is unchanged.
        self.telemetry = None
        #: Defense hook: when set, victim selection is delegated to the
        #: partition (see repro.defense.partitioning.AdaptivePartition).
        self.partition = None
        #: Optional callback fired with the line address of every line that
        #: leaves the LLC — used for inclusive back-invalidation of L1s.
        self.evict_hook: Callable[[int], None] | None = None
        self._offset_bits = self.geometry.offset_bits
        self._set_mask = self.geometry.sets_per_slice - 1
        #: Memoized decomposition: line address -> flat set id under the
        #: current mapping.  Every access path goes through it, on every
        #: backend, so each line is hashed at most once per mapping: one
        #: address at a time through :meth:`flat_set_of`, lists through
        #: :meth:`_flats_of_lines`.  A re-key reseeds it (:meth:`_rekey`).
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
        """Flat set id under the active index backend: the one-address
        entry to the memo, whose misses take the mapping's scalar
        :meth:`~repro.cache.backends.IndexMapping.flat_of`."""
        line = paddr >> self._offset_bits
        flat = self._flat_memo.get(line)
        if flat is None:
            flat = self.mapping.flat_of(paddr, line)
            self._flat_memo[line] = flat
        return flat

    def decompose_many(self, paddrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_set, line)`` arrays of an address array, through the
        per-line memo (:meth:`_flats_of_lines`)."""
        lines = np.asarray(paddrs, dtype=np.int64) >> self._offset_bits
        return np.asarray(self._flats_of_lines(lines.tolist()), dtype=np.int64), lines

    def _flats_of_lines(self, lines: list[int]) -> list[int]:
        """Flat set ids of ``lines`` (Python ints) under the current
        mapping: the memo serves the lines it holds, and the rest go to
        one ``flats_of_many`` call and join it."""
        memo = self._flat_memo
        try:
            return list(map(memo.__getitem__, lines))
        except KeyError:
            pass
        fresh = np.asarray(
            [line for line in lines if line not in memo], dtype=np.int64
        )
        flats = self.mapping.flats_of_many(fresh << self._offset_bits, fresh)
        memo.update(zip(fresh.tolist(), flats.tolist()))
        return list(map(memo.__getitem__, lines))

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
        # keys and seeds the memo wholesale: it then holds exactly what
        # per-line lookups through :meth:`decompose_many` would leave.
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
        if self.engine.touch(line, write):
            self.stats.cpu_hits += 1
            return True, self.timing.llc_hit_latency
        flat = self._flat_memo.get(line)
        if flat is None:
            flat = self.flat_set_of(paddr)
        return self._cpu_miss(flat, line, write, now)

    def _cpu_miss(
        self, flat: int, line: int, write: bool, now: int
    ) -> tuple[bool, int]:
        """A :meth:`cpu_access` that missed, filling set ``flat``: what
        :meth:`access_many`'s replays share with it."""
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
        until: int | None = None,
        extra: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`cpu_access`: returns ``(hits, latencies)`` arrays.

        One directory read (:meth:`CacheEngine.lookup_many`) resolves the
        batch against the cache as it was before it.  An access is a *sure
        hit* when its line was resident and no earlier access of the batch
        misses in its set: a miss changes only its own set (partition
        hooks included), so nothing else can evict that line first.  A
        resident line's set is its slot's, so only the misses are
        decomposed (:meth:`decompose_many`).  Sure hits are stamped in one
        vectorised step; every access from its set's first miss on
        replays, in order, as :meth:`cpu_access` runs it, with the set
        found here.  Each access is stamped ``tick + 1 + its position``,
        so tags, flags, stamps and the tick end exactly as a loop of
        :meth:`cpu_access` leaves them.

        The batch starts at cycle ``now``, and each access at the cycle
        the loop would issue it: ``now`` plus the latency and ``extra``
        (what the caller adds per access, e.g. timer overhead) of every
        access before it.  Each replay is handed its own start cycle,
        which a partition's presence clock reads.

        With ``until`` (a cycle) the call runs only the longest prefix
        whose accesses all start before ``until``, taking a sure hit to
        cost ``llc_hit_latency + extra`` and any other access
        ``llc_miss_latency + extra``.  Under an
        epochal backend it also stops where the mapping re-keys; the next
        call re-keys at its first access.  The returned arrays cover the
        prefix.  Without ``until`` the whole batch runs, as such
        prefixes when re-keys land inside it.
        """
        paddrs = np.asarray(paddrs, dtype=np.int64)
        n = len(paddrs)
        if n == 0:
            return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        window = 0 if until is None else until - now
        if until is not None and window <= 0:
            raise ValueError(f"until ({until}) must lie after now ({now})")
        timing = self.timing
        hit_latency = timing.llc_hit_latency
        epochal = self._epochal
        m = n
        if epochal:
            if self._access_count >= self._epoch_period:
                self._rekey(now)
                self._access_count = 0
            m = self._epoch_period - self._access_count
            if until is None and n > m:
                # A re-key lands inside a batch that must run whole: run it
                # as prefixes, each ending where the mapping re-keys.
                parts = []
                while len(paddrs):
                    hits, lats = self.access_many(
                        paddrs, write, now, sys.maxsize, extra
                    )
                    k = len(lats)
                    parts.append((hits, lats))
                    paddrs = paddrs[k:]
                    now += int(lats.sum()) + k * extra
                return tuple(np.concatenate(part) for part in zip(*parts))
            m = min(n, m)
        miss_cost = timing.llc_miss_latency + extra
        bounded = until is not None and (m - 1) * miss_cost >= window
        if bounded:
            # No access past this many can start before ``until``.
            m = min(m, -(-window // (hit_latency + extra)))
        lines = paddrs[:m] >> self._offset_bits
        engine = self.engine
        slots = engine.lookup_many(lines)
        hit = slots >= 0
        if hit.all():
            # Every access is a sure hit, and ``m`` already bounds them.
            if epochal:
                self._access_count += m
            engine.touch_many(slots, set_dirty=write)
            self.stats.cpu_hits += m
            return np.ones(m, dtype=bool), np.full(m, hit_latency, dtype=np.int64)
        # Replay every access from its set's first miss on.
        misses = np.flatnonzero(~hit)
        flats = slots // engine.ways
        flats[misses] = self.decompose_many(paddrs[misses])[0]
        miss_sets, first = np.unique(flats[misses], return_index=True)
        j = np.minimum(np.searchsorted(miss_sets, flats), len(miss_sets) - 1)
        replay = (miss_sets[j] == flats) & (np.arange(m) >= misses[first][j])
        k = m
        if bounded:
            costs = np.where(replay, miss_cost, hit_latency + extra)
            k = int(np.searchsorted(np.cumsum(costs) - costs, window))
            replay = replay[:k]
        replays = np.flatnonzero(replay)
        n_sure = k - len(replays)
        hits = np.ones(k, dtype=bool)
        lats = np.full(k, hit_latency, dtype=np.int64)
        if epochal:
            self._access_count += k
        if n_sure:
            sure = np.flatnonzero(~replay)
            engine.touch_many(slots[sure], set_dirty=write, positions=sure)
            self.stats.cpu_hits += n_sure
        touch = engine.touch
        done = 0
        step = hit_latency + extra
        late = 0  # what earlier replays cost beyond a hit
        for i, flat, line in zip(
            replays.tolist(), flats[replays].tolist(), lines[replays].tolist()
        ):
            if i > done:
                engine.skip(i - done)
            if touch(line, write):
                self.stats.cpu_hits += 1
            else:
                lat = self._cpu_miss(flat, line, write, now + i * step + late)[1]
                hits[i] = False
                lats[i] = lat
                late += lat - hit_latency
            done = i + 1
        engine.skip(k - done)
        return hits, lats

    def repeat_hits(self, paddrs: np.ndarray, repeats: int) -> None:
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
        slots = self.engine.lookup_many(paddrs >> self._offset_bits)
        if (slots < 0).any():
            raise ValueError("repeat_hits needs every line resident")
        self.engine.touch_many(slots, repeats=repeats)
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
        if not self.ddio.enabled:
            # Direct to DRAM; snoop-invalidate any cached copy.
            self.traffic.writes += 1
            if engine.invalidate(line) is not None:
                self.stats.invalidations += 1
                if self.evict_hook is not None:
                    self.evict_hook(line)
                if self.partition is not None:
                    self.partition.after_fill(self, self.flat_set_of(paddr), now)
            return
        if engine.contains(line):
            engine.mark_io(line)
            self.stats.io_hits += 1
            if self.partition is not None:
                self.partition.after_fill(self, self.flat_set_of(paddr), now)
            return
        flat = self.flat_set_of(paddr)
        self.stats.io_fills += 1
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
        # The cap is at least 1 (``DDIOConfig``), so a set at the cap
        # always holds an I/O line to evict.
        if self._skewed:
            # The I/O way cap stays set-wide (DDIO limits *how many* I/O
            # lines live in a set, not where); the fill itself may only
            # displace one of the line's candidate ways.
            if engine.io_count(flat) >= self.ddio.write_allocate_ways:
                self._retire(engine.evict_lru_of(flat, io=True), by_io=True)
            evicted = engine.insert_in(
                flat, line, LINE_IO | LINE_DIRTY, *self._way_range(line)
            )
            if evicted is not None:
                self._retire(evicted, by_io=True)
            return
        if engine.io_count(flat) >= self.ddio.write_allocate_ways:
            self._retire(engine.evict_lru_of(flat, io=True), by_io=True)
        elif engine.size(flat) >= engine.ways:
            self._retire(engine.evict_lru(flat), by_io=True)
        engine.insert(flat, line, LINE_IO | LINE_DIRTY)

    def io_write_many(self, paddrs: Iterable[int], now: int = 0) -> None:
        """One frame's inbound DMA: a loop of :meth:`io_write` over
        ``paddrs`` (Python ints) in order.  Multi-frame bursts take
        :meth:`rx_burst`."""
        for paddr in paddrs:
            self.io_write(paddr, now)

    def rx_burst(
        self,
        lines: list[int],
        kinds: list[int],
        stamp_offs: list[int],
        total_ops: int,
        folded_hits: int,
    ) -> None:
        """Apply a multi-frame rx burst's cache-op stream in one engine call.

        The NIC's drained-burst path (:meth:`repro.nic.nic.Nic.
        deliver_burst`) hands over the flattened footprint-op stream of
        many back-to-back frames as plain lists of Python ints: the line
        address, kind and stamp offset of every op — see
        :meth:`CacheEngine.rx_burst_apply` for the encoding and the one
        pass that applies it in stream order.  ``folded_hits`` counts the
        driver re-touches of same-frame lines that were folded into
        ``stamp_offs`` (guaranteed hits, attributed here).  ``total_ops``
        is the burst's LLC access count, the same as the per-frame path's.

        Raises, with no state touched, when :meth:`supports_rx_burst`
        does not hold or the burst would reach a re-key
        (:meth:`accesses_until_rekey`): a burst runs under one mapping,
        and the caller delivers the frame that reaches the re-key on its
        own.  So the memo (:meth:`_flats_of_lines`), under the current
        mapping, places every line of the burst, straight from its line
        list; the engine returns the burst's counts, which this adds to
        the stats, the DRAM traffic and the telemetry.
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
        counts = self.engine.rx_burst_apply(
            self._flats_of_lines(lines), lines, kinds, stamp_offs, total_ops,
            self.ddio.write_allocate_ways,
        )
        if self._epochal:
            self._access_count += total_ops
        stats = self.stats
        stats.io_hits += counts.fill_hits
        stats.io_fills += counts.new_fills
        stats.cpu_hits += folded_hits + counts.cpu_hits
        stats.cpu_misses += counts.cpu_misses
        self.traffic.reads += counts.cpu_misses
        stats.writebacks += counts.dirty_victims
        self.traffic.writes += counts.dirty_victims
        stats.io_evicted_io += counts.io_by_fill
        stats.cpu_evicted_io += counts.io_by_cpu
        stats.io_evicted_cpu += len(counts.cpu_by_fill)
        if self.telemetry is not None:
            if counts.new_fills:
                self.telemetry.on_dma_fill(counts.new_fills)
            for line in counts.cpu_by_fill:
                self.telemetry.on_io_evict_cpu(line)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self, paddr: int) -> int:
        """CLFLUSH: invalidate (with writeback if dirty); returns latency."""
        line = paddr >> self._offset_bits
        flags = self.engine.invalidate(line)
        if flags is not None:
            self.stats.invalidations += 1
            if self.evict_hook is not None:
                self.evict_hook(line)
            if flags & LINE_DIRTY:
                self.stats.writebacks += 1
                self.traffic.writes += 1
        return self.timing.llc_hit_latency

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
        list of what it covers: vanilla DDIO, no partition or eviction
        hook, and an unskewed (no way-restricted victims) index backend.
        An epochal backend qualifies: each burst stays inside one mapping
        epoch (:meth:`accesses_until_rekey`)."""
        return (
            self.ddio.enabled
            and self.partition is None
            and self.evict_hook is None
            and not self._skewed
        )

    # ------------------------------------------------------------------
    # Introspection (instrumentation / ground truth, not attacker-visible)
    # ------------------------------------------------------------------
    def is_resident(self, paddr: int) -> bool:
        """Whether the line holding ``paddr`` is currently cached."""
        return self.engine.contains(paddr >> self._offset_bits)

    def set_occupancy(self, flat_set: int) -> tuple[int, int]:
        """(cpu_lines, io_lines) resident in ``flat_set``."""
        return self.engine.cpu_count(flat_set), self.engine.io_count(flat_set)
