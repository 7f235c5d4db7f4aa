"""Ring-buffer sequence recovery — Algorithm 1 of the paper.

The spy watches a subset of the page-aligned sets while packets stream in,
then reconstructs the *order* in which the ring's buffers fill:

1. ``GET_CLEAN_SAMPLES`` — probe the monitored sets; sets that appear to
   miss on (almost) every sample are unusable, so they are swapped for the
   set holding the buffer's *second* cache block (same buffer, different
   set index), exactly as the paper prescribes.
2. ``BUILD_GRAPH`` — a weighted successor graph with **one node of
   history**: the edge keyed ``(prev, curr) -> cand`` counts how often
   activity on ``cand`` immediately followed activity on ``curr`` which
   itself followed ``prev``.  The history disambiguates two buffers that
   share a cache set (Fig. 9).
3. ``MAKE_SEQUENCE`` — walk the graph greedily from a root edge, always
   taking the heaviest unvisited successor, until the walk returns to the
   root or the edge weight falls below the cutoff.

The paper (Section III-C) places every set of a larger ring by repeating
the procedure over a sliding window of 31 known sets plus one candidate.
The experiments here sequence their monitored sets in one window, so that
extension is not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.attack.evictionset import EvictionSet
from repro.attack.primeprobe import ProbeMonitor, SampleTrace
from repro.telemetry.quality import quality_registry, record_sequence_recovery


def transition_graph(
    matrix: np.ndarray, miss_threshold: int
) -> dict[tuple[int, int], dict[int, int]]:
    """BUILD_GRAPH over a columnar sample matrix, vectorised.

    The scalar reference walks the activity events in row-major order
    carrying one node of history and counts each ``(prev, curr) -> cand``
    triple where ``curr != prev``.  Row-major ``np.nonzero`` yields that
    same event stream, so the triples are three shifted views of it; the
    counting collapses to one ``np.unique`` over integer-encoded triples.
    The returned dict reproduces the reference's insertion order exactly
    (edges and successors appear at their first triple occurrence), which
    is what breaks ties in the greedy walk — pinned against
    ``legacy_build_graph`` in ``tests/test_analysis_equivalence.py``.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        return {}
    events = np.nonzero(matrix >= miss_threshold)[1]
    n_events = events.size
    if n_events == 0:
        return {}
    # The walk starts from prev = curr = 0: event k sees
    # curr = events[k-1] (or 0) and prev = events[k-2] (or 0).
    currs = np.empty(n_events, dtype=np.int64)
    prevs = np.zeros(n_events, dtype=np.int64)
    currs[0] = 0
    currs[1:] = events[:-1]
    prevs[2:] = events[:-2]
    keep = currs != prevs  # no self-loop context
    if not keep.any():
        return {}
    n_sets = matrix.shape[1]
    codes = (prevs[keep] * n_sets + currs[keep]) * n_sets + events[keep]
    uniq, first_seen, counts = np.unique(
        codes, return_index=True, return_counts=True
    )
    graph: dict[tuple[int, int], dict[int, int]] = {}
    for u in np.argsort(first_seen, kind="stable"):
        code = int(uniq[u])
        cand = code % n_sets
        rest = code // n_sets
        edge = (int(rest // n_sets), int(rest % n_sets))
        graph.setdefault(edge, {})[cand] = int(counts[u])
    return graph


def greedy_sequence(
    graph: dict[tuple[int, int], dict[int, int]],
    root: tuple[int, int],
    max_steps: int,
    weight_cutoff: int,
) -> list[int]:
    """MAKE_SEQUENCE's greedy walk on dense per-edge weight arrays.

    Each edge's successor dict becomes a pair of (candidate, weight)
    arrays in insertion order, so the heaviest-successor choice is one
    ``argmax`` whose first-of-ties semantics match ``max(d, key=d.get)``
    on the dict.  Visited successors are zeroed in the local arrays —
    the input graph is left unmodified (the reference zeroed entries in
    the shared dict, but no caller reads the post-walk weights).
    """
    arrays = {
        edge: (
            np.fromiter(succ, np.int64, count=len(succ)),
            np.fromiter(succ.values(), np.int64, count=len(succ)),
        )
        for edge, succ in graph.items()
    }
    prev, curr = root
    sequence: list[int] = []
    for _ in range(max_steps):
        sequence.append(curr)
        entry = arrays.get((prev, curr))
        if entry is None or entry[0].size == 0:
            break
        cands, weights = entry
        pick = int(np.argmax(weights))
        weight = int(weights[pick])
        if weight < weight_cutoff:
            break
        weights[pick] = 0  # mark visited
        prev, curr = curr, int(cands[pick])
        if (prev, curr) == root:
            break
    return sequence


@dataclass
class SequencerConfig:
    """Tuning parameters (Table I defaults, scaled by experiments)."""

    n_samples: int = 10_000
    wait_cycles: int = 0
    #: A set active in more than this fraction of samples is "always miss".
    activity_cutoff: float = 0.85
    #: Minimum misses in a sample to count as activity.
    miss_threshold: int = 1
    #: Minimum edge weight to keep walking in MAKE_SEQUENCE.
    weight_cutoff: int = 2
    #: Maximum clean-sample retries (replacing noisy sets).
    max_retries: int = 2


class Sequencer:
    """Recovers the fill order of the monitored cache sets."""

    def __init__(
        self,
        process,
        groups: list[EvictionSet],
        config: SequencerConfig | None = None,
        replacement_provider: Callable[[int, EvictionSet], EvictionSet | None] | None = None,
        supervisor=None,
    ) -> None:
        if len(groups) < 3:
            raise ValueError("sequencing needs at least 3 monitored sets")
        self.process = process
        self.groups = list(groups)
        self.config = config or SequencerConfig()
        #: always-miss sets swapped for their block-1 replacement so far
        self._replaced_sets = 0
        #: Called with (group_index, eviction_set) when a set is too noisy;
        #: returns the block-1 replacement set, or None to keep the set.
        self.replacement_provider = replacement_provider
        #: Optional :class:`~repro.attack.adaptive.AdaptiveSupervisor`:
        #: forwarded into each sampling :class:`ProbeMonitor` (in-flight
        #: recalibration / healing) and consulted once more when recovery
        #: yields an empty sequence (sync loss -> one full retry).
        self.supervisor = supervisor

    # ------------------------------------------------------------------
    # Step 1: clean samples
    # ------------------------------------------------------------------
    def get_clean_samples(self) -> SampleTrace:
        """Sample the monitor list, replacing always-miss sets."""
        cfg = self.config
        for _attempt in range(cfg.max_retries + 1):
            monitor = ProbeMonitor(
                self.process, self.groups, supervisor=self.supervisor
            )
            trace = monitor.sample(cfg.n_samples, cfg.wait_cycles)
            if self.supervisor is not None:
                # A mid-sample heal may have rebuilt the monitor list.
                self.groups = list(monitor.sets)
            noisy = [
                j
                for j, fraction in enumerate(trace.activity_fraction())
                if fraction > cfg.activity_cutoff
            ]
            if not noisy or self.replacement_provider is None:
                return trace
            replaced_any = False
            replaced_count = 0
            for j in noisy:
                replacement = self.replacement_provider(j, self.groups[j])
                if replacement is not None:
                    self.groups[j] = replacement
                    replaced_any = True
                    replaced_count += 1
            self._replaced_sets += replaced_count
            if not replaced_any:
                return trace
        return trace

    # ------------------------------------------------------------------
    # Step 2: successor graph with one-node history
    # ------------------------------------------------------------------
    def build_graph(self, trace: SampleTrace) -> dict[tuple[int, int], dict[int, int]]:
        """graph[(prev, curr)][cand] = observed transition count."""
        return transition_graph(trace.samples, self.config.miss_threshold)

    # ------------------------------------------------------------------
    # Step 3: greedy traversal
    # ------------------------------------------------------------------
    @staticmethod
    def _get_root(graph: dict[tuple[int, int], dict[int, int]]) -> tuple[int, int]:
        """Heaviest edge in the graph — a reliable starting context."""
        best_edge, best_weight = None, -1
        for edge, successors in graph.items():
            weight = max(successors.values(), default=0)
            if weight > best_weight:
                best_edge, best_weight = edge, weight
        if best_edge is None:
            raise RuntimeError("empty transition graph: no activity observed")
        return best_edge

    def make_sequence(self, graph: dict[tuple[int, int], dict[int, int]]) -> list[int]:
        """Walk the graph from the root until returning to it."""
        root = self._get_root(graph)
        return greedy_sequence(
            graph, root, 8 * len(self.groups), self.config.weight_cutoff
        )

    def recover(self) -> tuple[list[int], SampleTrace]:
        """Full pipeline: samples -> graph -> sequence of group indices.

        A trace with no usable transitions (all packets lost, monitors all
        dark) yields an *empty sequence*, not an exception: the channel is
        lossy by nature and a caller holding partial results must be able
        to continue (``make_sequence`` still raises when invoked directly
        on an empty graph — only the pipeline degrades).
        """
        trace = self.get_clean_samples()
        graph = self.build_graph(trace)
        sequence = [] if not graph else self.make_sequence(graph)
        if not sequence and self.supervisor is not None:
            # Sync loss: the whole sampling window saw no usable
            # transitions.  Note it and retry once — the supervisor's
            # in-flight recoveries (threshold refresh, healed sets) make
            # the second window a genuinely different measurement.
            self.supervisor.note_sequence_sync_loss()
            trace = self.get_clean_samples()
            graph = self.build_graph(trace)
            sequence = [] if not graph else self.make_sequence(graph)
        registry = quality_registry(self.process.machine.telemetry)
        if registry is not None:
            record_sequence_recovery(
                registry,
                n_sets=len(self.groups),
                graph_edges=sum(len(s) for s in graph.values()),
                sequence_len=len(sequence),
                activity=trace.activity_fraction(),
                replaced_sets=self._replaced_sets,
            )
        return sequence, trace
