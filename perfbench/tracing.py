"""Per-layer self time from spans recorded around the simulator's public calls.

The traced run patches a fixed list of functions of the ``repro`` layers
(:data:`PROBES`) with thin wrappers.  Each wrapped call records one span —
name, start, end and the index of the enclosing span — in flat in-memory
arrays; nothing is dropped, whatever the run length.  A span's self time is
its duration minus the durations of its direct children, so time spent in
numpy or in unwrapped helpers is charged to the nearest wrapped caller.

Calls that are too frequent for a span (``EventQueue.run_due``, the memory
agent's per-line accesses) are counted only.  Some probes also *tally* a
value taken from their arguments or result, e.g. the number of fills a clock
poll detected, which the per-layer ratios need.

Wrapping happens on the owning class or module, so instances created before
or after installation are traced alike; :meth:`SpanTracer.uninstall`
restores every original attribute.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``target`` is ``"module:Owner.attr"`` or
    ``"module:function"``; ``name`` is the ``<layer>.<function>`` it is
    reported under (several targets may share one name)."""

    target: str
    name: str
    #: False for calls too hot for a span: only the call count is kept.
    span: bool = True
    #: ``(args, kwargs, result) -> int`` added to :attr:`tally_name`.
    tally: Callable | None = None
    tally_name: str = ""


def _first_arg_len(args, kwargs, _result) -> int:
    return len(args[1]) if len(args) > 1 else len(next(iter(kwargs.values())))


def _n_samples(args, kwargs, _result) -> int:
    return int(args[1]) if len(args) > 1 else int(kwargs["n_samples"])


PROBES: tuple[Probe, ...] = (
    # attack
    Probe("repro.attack.chase:BufferMonitor.clock_active", "attack.clock_active",
          tally=lambda a, k, r: int(bool(r)), tally_name="attack.fills"),
    Probe("repro.attack.primeprobe:SetSweep.probe", "attack.setsweep"),
    Probe("repro.attack.evictionset:EvictionSet.prime", "attack.prime"),
    Probe("repro.attack.chase:PacketChaser.chase", "attack.chase"),
    Probe("repro.attack.chase:PacketChaser.wait_for_fill", "attack.chase",
          tally=lambda a, k, r: int(not r), tally_name="attack.chase_timeouts"),
    Probe("repro.attack.primeprobe:ProbeMonitor.sample", "attack.sample",
          tally=_n_samples, tally_name="attack.sample.sweeps"),
    Probe("repro.attack.sequencer:Sequencer.recover", "attack.sequencer"),
    Probe("repro.attack.timing:calibrate_threshold", "attack.calibrate"),
    Probe("repro.attack.setup:MonitorFactory.full_ring_chaser", "attack.build"),
    Probe("repro.attack.evictionset:OracleEvictionSetBuilder.build_page_aligned_groups",
          "attack.build"),
    # core
    Probe("repro.core.machine:Machine.cpu_access_many", "core.cpu_access_many",
          tally=_first_arg_len, tally_name="core.accesses"),
    Probe("repro.core.machine:Machine.idle", "core.idle"),
    Probe("repro.core.events:EventQueue.run_due", "core.run_due", span=False),
    # cache
    Probe("repro.cache.llc:SlicedLLC.access_many", "cache.access_many"),
    Probe("repro.cache.llc:SlicedLLC.cpu_access", "cache.cpu_access"),
    Probe("repro.cache.llc:SlicedLLC.io_write_many", "cache.io_write_many"),
    Probe("repro.cache.engine:CacheEngine.rx_burst_apply", "cache.rx_burst_apply"),
    Probe("repro.cache.hierarchy:CacheHierarchy.access", "cache.hierarchy"),
    Probe("repro.cache.llc:SlicedLLC.decompose_many", "cache.decompose_many"),
    # nic
    Probe("repro.nic.nic:Nic.deliver", "nic.deliver"),
    Probe("repro.nic.nic:Nic.deliver_burst", "nic.deliver_burst",
          tally=_first_arg_len, tally_name="nic.burst_frames"),
    # mem
    Probe("repro.mem.addrspace:AddressSpace.translate", "mem.translate"),
    Probe("repro.mem.physmem:PhysicalMemory.alloc_frame", "mem.alloc"),
    Probe("repro.mem.physmem:PhysicalMemory.alloc_contiguous", "mem.alloc"),
    # analysis
    Probe("repro.analysis.correlation:CorrelationClassifier.classify",
          "analysis.classify"),
    Probe("repro.analysis.levenshtein:cyclic_levenshtein", "analysis.levenshtein"),
    # perf
    Probe("repro.perf.workloads:NginxServer.handle_request", "perf.handle_request"),
    Probe("repro.perf.agent:MemAgent.read", "perf.agent", span=False),
    Probe("repro.perf.agent:MemAgent.write", "perf.agent", span=False),
    Probe("repro.perf.agent:MemAgent.read_kernel", "perf.agent", span=False),
    # defense
    Probe("repro.defense.partitioning:AdaptivePartition.adapt", "defense.adapt"),
    Probe("repro.defense.randomization:FullRandomizer.on_packet",
          "defense.randomizer"),
    Probe("repro.defense.randomization:PartialRandomizer.on_packet",
          "defense.randomizer"),
)


def resolve(target: str) -> tuple[object, str]:
    """``"module:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class SpanTracer:
    """Installs :data:`PROBES` (or any probe list) and keeps every span.

    Use as a context manager: the wrappers are in place inside the
    ``with`` block and the original attributes are back after it, even
    when the block raises.
    """

    def __init__(self, probes: tuple[Probe, ...] = PROBES) -> None:
        self.probes = probes
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.ids = array("i")
        self.parents = array("i")
        self.counts: dict[str, int] = {}
        self.tallies: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for probe in self.probes:
                owner, attr = resolve(probe.target)
                original = vars(owner)[attr]
                if probe.tally is not None:
                    self.tallies.setdefault(probe.tally_name, 0)
                if probe.span:
                    wrapper = self._span_wrapper(original, probe)
                else:
                    self.counts.setdefault(probe.name, 0)
                    wrapper = self._count_wrapper(original, probe.name)
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, probe: Probe):
        name_id = self._name_id(probe.name)
        starts, ends, ids, parents = self.starts, self.ends, self.ids, self.parents
        stack = self._stack
        tally, tally_name, tallies = probe.tally, probe.tally_name, self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if tally is not None:
                tallies[tally_name] += tally(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- aggregation ---------------------------------------------------
    @property
    def n_spans(self) -> int:
        return len(self.ids)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        dur = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        ids = np.frombuffer(self.ids, dtype=np.intc)
        parents = np.frombuffer(self.parents, dtype=np.intc)
        return dur, ids, parents

    def inclusive(self) -> dict[str, float]:
        """Seconds inside spans of each name, children included (a span
        directly nested in one of the same name is not counted twice)."""
        if not len(self.ids):
            return {name: 0.0 for name in self.names}
        dur, ids, parents = self._arrays()
        parent_ids = np.where(parents >= 0, ids[np.maximum(parents, 0)], -1)
        outer = parent_ids != ids
        total = np.bincount(ids[outer], weights=dur[outer], minlength=len(self.names))
        return {name: float(total[i]) for i, name in enumerate(self.names)}

    def summary(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Calls and self seconds per span name, and the summed duration
        of the outermost spans (the part of the traced wall some span
        covers)."""
        n = len(self.ids)
        names = self.names
        if n == 0:
            return ({name: 0 for name in names}, {name: 0.0 for name in names}, 0.0)
        dur, ids, parents = self._arrays()
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        own = dur - child
        self_s = np.bincount(ids, weights=own, minlength=len(names))
        calls = np.bincount(ids, minlength=len(names))
        return (
            {name: int(calls[i]) for i, name in enumerate(names)},
            {name: float(self_s[i]) for i, name in enumerate(names)},
            float(dur[~nested].sum()),
        )
