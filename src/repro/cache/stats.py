"""Cache statistics counters."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counters import CounterStats


@dataclass
class CacheStats(CounterStats):
    """Aggregate counters for one cache level.

    ``io_evicted_cpu`` counts the events at the heart of the vulnerability:
    an inbound-DMA (DDIO) allocation displacing a CPU-origin line, which is
    what the spy's PRIME+PROBE observes.  The adaptive-partitioning defense
    drives this count to zero (except at adaptation boundaries).
    """

    cpu_hits: int = 0
    cpu_misses: int = 0
    io_hits: int = 0
    io_fills: int = 0
    writebacks: int = 0
    io_evicted_cpu: int = 0
    io_evicted_io: int = 0
    cpu_evicted_io: int = 0
    invalidations: int = 0

    @property
    def cpu_accesses(self) -> int:
        return self.cpu_hits + self.cpu_misses

    @property
    def miss_rate(self) -> float:
        """CPU-side miss rate (the quantity reported in Fig. 15)."""
        total = self.cpu_accesses
        return self.cpu_misses / total if total else 0.0

    # reset / snapshot / from_snapshot / merge / delta come from
    # CounterStats; NicStats and DriverStats share the same machinery.

