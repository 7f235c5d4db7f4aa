"""Frozen OrderedDict-based reference model for differential testing.

This module preserves the pre-engine implementation of the sliced LLC (one
:class:`~repro.cache.cacheset.CacheSet` per set) and the adaptive-partition
victim policy exactly as they shipped before the packed
:class:`~repro.cache.engine.CacheEngine` replaced them on the hot path.

**Production code must not import this.**  It has two consumers:

* ``tests/test_engine_equivalence.py`` replays randomized
  CPU/DMA/flush/partition traces through both models and asserts
  identical eviction decisions, stats and probe outcomes, so the harness
  keeps guarding the engine against behavioural drift;
* :mod:`reference.bench`, the hot-path bench, runs the denominators of
  ``sweep_speedup`` (a per-line sweep) and of the rx ratios (the frozen
  NIC of :mod:`reference.nic` delivering into this LLC) on it, so that no
  change to the live cache code moves a denominator.

Delete this file only with both.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.cacheset import CacheSet, LINE_DIRTY, LINE_IO
from repro.cache.slicehash import IntelComplexHash, SliceHash
from repro.cache.stats import CacheStats
from repro.core.config import CacheGeometry, DDIOConfig, TimingParams
from repro.defense.partitioning import PartitionConfig, PartitionStats
from repro.mem.physmem import DramTraffic


class LegacySlicedLLC:
    """The shared LLC as modelled before the packed engine refactor."""

    def __init__(
        self,
        geometry: CacheGeometry | None = None,
        ddio: DDIOConfig | None = None,
        timing: TimingParams | None = None,
        traffic: DramTraffic | None = None,
        slice_hash: SliceHash | None = None,
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
        self.sets: list[CacheSet] = [
            CacheSet(self.geometry.ways) for _ in range(self.geometry.total_sets)
        ]
        self.stats = CacheStats()
        self.telemetry = None
        self.partition = None
        self.io_fill_hook: Callable[[int], None] | None = None
        self.evict_hook: Callable[[int], None] | None = None
        self._offset_bits = self.geometry.offset_bits
        self._set_mask = self.geometry.sets_per_slice - 1

    # ------------------------------------------------------------------
    # Address decomposition
    # ------------------------------------------------------------------
    def set_index_of(self, paddr: int) -> int:
        return (paddr >> self._offset_bits) & self._set_mask

    def slice_of(self, paddr: int) -> int:
        return self.slice_hash.slice_of(paddr)

    def flat_set_of(self, paddr: int) -> int:
        return (
            self.slice_hash.slice_of(paddr) * self.geometry.sets_per_slice
            + ((paddr >> self._offset_bits) & self._set_mask)
        )

    def line_addr_of(self, paddr: int) -> int:
        return paddr >> self._offset_bits

    # ------------------------------------------------------------------
    # CPU path
    # ------------------------------------------------------------------
    def cpu_access(self, paddr: int, write: bool = False, now: int = 0) -> tuple[bool, int]:
        flat = self.flat_set_of(paddr)
        cset = self.sets[flat]
        line = paddr >> self._offset_bits
        if cset.touch(line, set_dirty=write):
            self.stats.cpu_hits += 1
            return True, self.timing.llc_hit_latency
        self.stats.cpu_misses += 1
        self.traffic.reads += 1
        self._fill_cpu(flat, cset, line, write, now)
        return False, self.timing.llc_miss_latency

    def _fill_cpu(self, flat: int, cset: CacheSet, line: int, write: bool, now: int) -> None:
        flags = LINE_DIRTY if write else 0
        if self.partition is not None:
            evicted = self.partition.victim_for_cpu_fill(self, flat, cset, now)
            if evicted is not None:
                self._retire(evicted, by_io=False)
            cset.insert(line, flags)
            self.partition.after_fill(self, flat, cset, now)
            return
        evicted = cset.insert(line, flags)
        if evicted is not None:
            self._retire(evicted, by_io=False)

    # ------------------------------------------------------------------
    # I/O (DMA) path
    # ------------------------------------------------------------------
    def io_write(self, paddr: int, now: int = 0) -> None:
        if not self.ddio.enabled:
            self.traffic.writes += 1
            flat = self.flat_set_of(paddr)
            cset = self.sets[flat]
            line = paddr >> self._offset_bits
            if cset.invalidate(line) is not None:
                self.stats.invalidations += 1
                if self.evict_hook is not None:
                    self.evict_hook(line)
                if self.partition is not None:
                    self.partition.after_fill(self, flat, cset, now)
            return
        flat = self.flat_set_of(paddr)
        cset = self.sets[flat]
        line = paddr >> self._offset_bits
        if line in cset:
            cset.mark_io(line)
            self.stats.io_hits += 1
            if self.partition is not None:
                self.partition.after_fill(self, flat, cset, now)
            return
        self.stats.io_fills += 1
        if self.io_fill_hook is not None:
            self.io_fill_hook(flat)
        if self.partition is not None:
            evicted = self.partition.victim_for_io_fill(self, flat, cset, now)
            if evicted is not None:
                self._retire(evicted, by_io=True)
            cset.insert(line, LINE_IO | LINE_DIRTY)
            self.partition.after_fill(self, flat, cset, now)
            return
        if cset.io_count >= self.ddio.write_allocate_ways:
            evicted = cset.evict_lru_of(io=True)
            if evicted is not None:
                self._retire(evicted, by_io=True)
        elif len(cset) >= cset.ways:
            self._retire(cset.evict_lru(), by_io=True)
        cset.insert(line, LINE_IO | LINE_DIRTY)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self, paddr: int) -> int:
        cset = self.sets[self.flat_set_of(paddr)]
        line = paddr >> self._offset_bits
        flags = cset.invalidate(line)
        if flags is not None:
            self.stats.invalidations += 1
            if self.evict_hook is not None:
                self.evict_hook(line)
            if flags & LINE_DIRTY:
                self.stats.writebacks += 1
                self.traffic.writes += 1
        return self.timing.llc_hit_latency

    def _retire(self, evicted: tuple[int, int], by_io: bool) -> None:
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_resident(self, paddr: int) -> bool:
        return (paddr >> self._offset_bits) in self.sets[self.flat_set_of(paddr)]

    def set_occupancy(self, flat_set: int) -> tuple[int, int]:
        return self.sets[flat_set].occupancy()


class LegacyAdaptivePartition:
    """The cset-based adaptive partition exactly as it ran pre-engine."""

    def __init__(self, config: PartitionConfig | None = None) -> None:
        self.config = config or PartitionConfig()
        self.stats = PartitionStats()
        self._quota: dict[int, int] = {}
        self._default_quota = self.config.init_quota
        self._presence: dict[int, int] = {}
        self._io_since: dict[int, int] = {}
        self._period_start = 0
        self._machine = None

    def quota(self, flat: int) -> int:
        return self._quota.get(flat, self._default_quota)

    def victim_for_io_fill(self, llc, flat: int, cset: CacheSet, now: int):
        if cset.io_count >= self.quota(flat):
            return cset.evict_lru_of(io=True)
        if len(cset) >= cset.ways:
            return cset.evict_lru()
        return None

    def victim_for_cpu_fill(self, llc, flat: int, cset: CacheSet, now: int):
        cpu_limit = cset.ways - self.quota(flat)
        if cset.cpu_count >= cpu_limit:
            victim = cset.evict_lru_of(io=False)
            if victim is not None:
                return victim
        if len(cset) >= cset.ways:
            return cset.evict_lru()
        return None

    def after_fill(self, llc, flat: int, cset: CacheSet, now: int) -> None:
        has_io = cset.io_count > 0
        since = self._io_since.get(flat)
        if has_io and since is None:
            self._io_since[flat] = now
        elif not has_io and since is not None:
            start = max(since, self._period_start)
            self._presence[flat] = self._presence.get(flat, 0) + max(0, now - start)
            del self._io_since[flat]

    def presence_this_period(self, flat: int, now: int) -> int:
        total = self._presence.get(flat, 0)
        since = self._io_since.get(flat)
        if since is not None:
            total += max(0, now - max(since, self._period_start))
        return min(total, max(0, now - self._period_start))

    def adapt(self, llc, now: int) -> None:
        cfg = self.config
        self.stats.adaptations += 1
        candidates = set(self._presence) | set(self._io_since)
        for flat in candidates:
            presence = self.presence_this_period(flat, now)
            quota = self.quota(flat)
            if presence >= cfg.t_high and quota < cfg.max_quota:
                self._set_quota(llc, flat, quota + 1)
                self.stats.quota_grown += 1
            elif presence <= cfg.t_low and quota > cfg.min_quota:
                self._set_quota(llc, flat, quota - 1)
                self.stats.quota_shrunk += 1
        for flat, quota in list(self._quota.items()):
            if flat not in candidates and quota > cfg.min_quota:
                self._set_quota(llc, flat, quota - 1)
                self.stats.quota_shrunk += 1
        if self._default_quota > cfg.min_quota:
            self._default_quota -= 1
        self._presence.clear()
        for flat in list(self._io_since):
            self._io_since[flat] = now
        self._period_start = now

    def _set_quota(self, llc, flat: int, new_quota: int) -> None:
        self._quota[flat] = new_quota
        cset = llc.sets[flat]
        while cset.io_count > new_quota:
            victim = cset.evict_lru_of(io=True)
            if victim is None:
                break
            llc._retire(victim, by_io=True)
            self.stats.boundary_invalidations += 1
        cpu_limit = cset.ways - new_quota
        while cset.cpu_count > cpu_limit:
            victim = cset.evict_lru_of(io=False)
            if victim is None:
                break
            llc._retire(victim, by_io=False)
            self.stats.boundary_invalidations += 1
