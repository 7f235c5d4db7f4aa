"""Private L1 cache and a two-level hierarchy used by the CPU-side model.

The side-channel experiments run the spy directly against the LLC (its
eviction sets exceed L1 associativity, so L1 contributes nothing but a
constant offset), but the performance model for the defense evaluation
(Figs. 14-16) routes victim workloads through a private L1 so that hot
working sets filter out of the LLC traffic realistically.

The hierarchy is inclusive, like the Intel parts the paper targets: an LLC
eviction back-invalidates the L1 copy.

Victim memory is stepped a run at a time: :meth:`CacheHierarchy.access_run`
walks consecutive lines through L1 then LLC in one loop, stopping at the
caller's next pending event.
"""

from __future__ import annotations

import sys

from repro.cache.cacheset import CacheSet, LINE_DIRTY
from repro.cache.llc import SlicedLLC
from repro.cache.stats import CacheStats
from repro.core.config import TimingParams


class L1Cache:
    """A small private physically-indexed cache (32 KB / 8-way by default)."""

    def __init__(self, size_kb: int = 32, ways: int = 8, line_size: int = 64) -> None:
        n_lines = size_kb * 1024 // line_size
        if n_lines % ways:
            raise ValueError("cache size not divisible into whole sets")
        self.n_sets = n_lines // ways
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"L1 set count must be a power of two, got {self.n_sets}")
        self.ways = ways
        self.line_size = line_size
        self._offset_bits = line_size.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self.sets = [CacheSet(ways) for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def set_of(self, paddr: int) -> CacheSet:
        return self.sets[(paddr >> self._offset_bits) & self._set_mask]

    def access(self, paddr: int, write: bool = False) -> bool:
        """Look up ``paddr``; True on hit."""
        hit = self.set_of(paddr).touch(paddr >> self._offset_bits, set_dirty=write)
        if hit:
            self.stats.cpu_hits += 1
        else:
            self.stats.cpu_misses += 1
        return hit

    def fill(self, paddr: int, write: bool) -> tuple[int, int] | None:
        """Install the line for ``paddr``; return evicted (line, flags)."""
        flags = LINE_DIRTY if write else 0
        return self.set_of(paddr).insert(paddr >> self._offset_bits, flags)

    def invalidate_line(self, line_addr: int) -> int | None:
        """Back-invalidate on LLC eviction (inclusive hierarchy)."""
        paddr = line_addr << self._offset_bits
        return self.set_of(paddr).invalidate(line_addr)


class CacheHierarchy:
    """L1 + shared LLC with inclusive back-invalidation.

    One instance per simulated core/process in the performance model; all
    instances share the same :class:`SlicedLLC`.  :meth:`access_run` is the
    one L1 → LLC step; :meth:`access` is a one-line run.
    """

    def __init__(
        self,
        llc: SlicedLLC,
        timing: TimingParams | None = None,
        l1: L1Cache | None = None,
    ) -> None:
        self.llc = llc
        self.timing = timing or llc.timing
        self.l1 = l1 or L1Cache()
        # Register for back-invalidation so inclusion holds.  Multiple
        # hierarchies chain their hooks.
        previous_hook = llc.evict_hook

        def _back_invalidate(line_addr: int) -> None:
            self.l1.invalidate_line(line_addr)
            if previous_hook is not None:
                previous_hook(line_addr)

        llc.evict_hook = _back_invalidate

    def access(self, paddr: int, write: bool = False, now: int = 0) -> tuple[bool, int]:
        """Access through L1 then LLC; returns (l1_hit, total_latency).

        A one-line :meth:`access_run`.  Only an L1 hit costs exactly
        ``l1_hit_latency``: a miss adds an LLC latency, which
        :class:`TimingParams` keeps positive.
        """
        latency = self.access_run(paddr, 1, write, now, sys.maxsize)[1] - now
        return latency == self.timing.l1_hit_latency, latency

    def access_run(
        self, paddr: int, n_lines: int, write: bool, now: int, until: int
    ) -> tuple[int, int]:
        """Access ``n_lines`` consecutive lines from ``paddr``, one after
        another from cycle ``now``; returns ``(lines done, cycle after)``.

        Each line goes L1 → LLC on a miss → L1 fill → dirty L1 writeback
        into the LLC copy, and is passed its own start cycle.  The run
        stops before the first access that would start at or after
        ``until``: the caller's next pending event, which must fire before
        that access.  Stopping there is exact because nothing on a CPU
        access path schedules an event.  The only callers of
        ``EventQueue.schedule`` are the NIC, the driver, the traffic
        sources, the partition tick and the fault co-runner, and each runs
        outside a CPU access, so no event becomes due inside a run that
        was not pending when it started.  ``paddr`` advances by one line
        per access: the caller keeps a run inside one physical page.
        """
        l1 = self.l1
        l1_sets = l1.sets
        shift = l1._offset_bits
        mask = l1._set_mask
        step = l1.line_size
        l1_latency = self.timing.l1_hit_latency
        cpu_access = self.llc.cpu_access
        llc_touch = self.llc.engine.touch
        fill_flags = LINE_DIRTY if write else 0
        done = hits = 0
        while done < n_lines and now < until:
            line = paddr >> shift
            l1_set = l1_sets[line & mask]
            if l1_set.touch(line, write):
                hits += 1
                now += l1_latency
            else:
                now += l1_latency + cpu_access(paddr, write, now)[1]
                evicted = l1_set.insert(line, fill_flags)
                if evicted is not None and evicted[1] & LINE_DIRTY:
                    # Dirty L1 writeback lands in the (inclusive) LLC copy.
                    llc_touch(evicted[0], True)
            paddr += step
            done += 1
        l1.stats.cpu_hits += hits
        l1.stats.cpu_misses += done - hits
        return done, now
