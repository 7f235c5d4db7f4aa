"""Differential equivalence: batched rx datapath vs the frozen scalar one.

The refactor replaced the NIC's per-block ``io_write`` loop and the
driver's per-block ``cpu_access`` loops with batched engine calls over
each burst's footprint ops, and taught the event loop to drain frame
bursts without one heap round-trip per frame.  This harness pins the claim
that none of that is observable: a machine running the frozen scalar path
(:mod:`repro.nic.legacy`, ``allow_bursts=False``) and a machine running
the batched path with bursts enabled replay the same randomized workload —
mixed frame sizes and protocols, spy probe sweeps interleaved — and must
finish with bit-identical cache state, cache/NIC/driver stats, receive
logs, probe latency traces, and clock values.

The configuration matrix crosses {DDIO on/off} x {faults off/heavy} x
{partition off/on}, plus ring-randomization configs (partial and full)
and a zero copy threshold, under which even one-block frames take the
fragment path; over the full matrix more than 10k randomized frames are
replayed per side.  Keyed-index rows re-key inside the burst windows:
there a burst stops at the re-key and the frame that reaches it is
delivered on its own, which the mapping stats and epoch pin as well.
Skewed-index rows (DDIO on and off) and a row with an L1 hierarchy's
back-invalidation hook installed pin the per-frame path under the policies
the burst kernel declines; the latter also compares the line sequence the
hook is passed.

The bursting rows run again at DDIO way caps 1, 2 and ``ways``, on cold
and on warm caches (``BURST_ROWS``), and must reach every branch of the
engine's burst pass that rx traffic can reach.
``test_burst_paths_agree_on_random_streams`` pins the pass on random op
streams against a loop of ``io_write`` and ``cpu_access``, where CPU ops
also evict I/O lines.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import random

import pytest

import numpy as np

from repro.cache.cacheset import LINE_IO
from repro.cache.engine import CacheEngine
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import ModuloSliceHash
from repro.core.config import CacheGeometry, DDIOConfig, MachineConfig, RingConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition, PartitionConfig
from repro.defense.randomization import FullRandomizer, PartialRandomizer
from repro.faults.profiles import get_profile
from repro.net.packet import Frame
from repro.net.traffic import PoissonNoise, TrafficSource
from reference.nic import install_legacy_nic

SIZES = [60, 64, 120, 128, 192, 256, 300, 512, 700, 1024, 1200, 1400, 1514]
COPY = RingConfig().copy_threshold


class MixedStream(TrafficSource):
    """Randomized sizes, gaps and protocols from a private seeded RNG."""

    def __init__(self, seed: int, count: int, rate_pps: float) -> None:
        super().__init__()
        self.seed = seed
        self.count = count
        self.rate_pps = rate_pps

    def _frames(self):
        rng = random.Random(self.seed)
        for _ in range(self.count):
            gap = rng.expovariate(self.rate_pps)
            size = rng.choice(SIZES)
            proto = "broadcast" if rng.random() < 0.35 else "tcp"
            yield gap, Frame(size=size, protocol=proto)


def build_machine(
    legacy: bool,
    ddio: bool,
    faults: str,
    partition: bool,
    randomize: bool | str,
    copy_threshold: int = COPY,
    backend: str = "modulo",
    l1: bool = False,
    ddio_ways: int | None = None,
    warm: bool = False,
) -> Machine:
    cfg = MachineConfig().scaled_down()
    cfg.cache_backend = backend
    cfg.ddio = DDIOConfig(
        enabled=ddio, write_allocate_ways=ddio_ways or cfg.ddio.write_allocate_ways
    )
    cfg.ring = dataclasses.replace(cfg.ring, copy_threshold=copy_threshold)
    cfg.faults = get_profile(faults)
    m = Machine(cfg)
    if legacy:
        install_legacy_nic(m, log_receives=True)
    else:
        m.install_nic(log_receives=True)
    if partition:
        AdaptivePartition(PartitionConfig(period=100_000)).install(m)
    if randomize == "full":
        m.driver.randomizer = FullRandomizer()
    elif randomize:
        m.driver.randomizer = PartialRandomizer(interval=16, rng=random.Random(5))
    if l1:
        # The L1 back-invalidation hook a victim's hierarchy installs
        # (nginx), chained in front of a log of every line it is passed.
        m.evicted_lines = []
        m.llc.evict_hook = m.evicted_lines.append
        CacheHierarchy(m.llc)
    if warm:
        # Fill every set with dirty CPU lines, twice over.
        geom = m.llc.geometry
        size = 2 * geom.total_sets * geom.ways * geom.line_size
        hog = m.new_process("hog")
        base = hog.mmap(size // 4096)
        hog.access_many(range(base, base + size, geom.line_size), write=True)
    return m


def run_workload(m: Machine, seed: int, n_frames: int) -> list[int]:
    """Attach sources, interleave spy probe sweeps, return the probe trace."""
    src = MixedStream(seed, count=n_frames - n_frames // 4, rate_pps=400_000.0)
    src.attach(m, m.nic)
    noise = PoissonNoise(
        rate_pps=120_000.0, rng=random.Random(seed + 1), count=n_frames // 4
    )
    noise.attach(m, m.nic)
    spy = m.new_process("spy")
    vbase = spy.mmap(8)
    trace: list[int] = []
    for _ in range(12):
        m.idle(80_000)
        for i in range(0, 8 * 4096, 256):
            trace.append(spy.timed_access(vbase + i))
    # Perpetual actors (the partition's adapt tick, the fault co-runner)
    # reschedule themselves forever, so the queue never empties; run to a
    # horizon generously past the last scheduled frame instead of draining.
    m.run_events_until(m.clock.now + m.clock.cycles(0.05))
    return trace


def full_state(m: Machine):
    geom = m.llc.geometry
    lines = [
        m.llc.engine.lines_in_lru_order(flat)
        for flat in range(geom.n_slices * geom.sets_per_slice)
    ]
    return {
        "llc": m.llc.stats.snapshot(),
        "traffic": (m.llc.traffic.reads, m.llc.traffic.writes),
        "nic": m.nic.stats.snapshot(),
        "driver": m.driver.stats.snapshot(),
        "log": [
            (r.time, r.ring_slot, r.page_paddr, r.dma_paddr, r.n_blocks, r.size)
            for r in m.driver.receive_log
        ],
        "ring": m.ring.order_fingerprint(),
        "lines": lines,
        "mapping": (m.llc.mapping.stats.snapshot(), m.llc.mapping_epoch),
        "evicted": getattr(m, "evicted_lines", None),
        "now": m.clock.now,
    }


# (ddio, faults, partition, randomize, copy_threshold, l1, n_frames,
# backend), where randomize is False, True (partial: permute the ring every
# 16 packets) or "full" (a fresh page per packet), and l1 attaches an L1
# hierarchy, whose back-invalidation hook the LLC then calls on every
# eviction; >= 10k frames in total.  The keyed rows run with DDIO on and no
# faults, where bursts engage; epoch=700 re-keys inside most burst windows.
# The skewed and l1 rows take the per-frame path, which the burst kernel
# does not model.
MATRIX = [
    (True, "off", False, False, COPY, False, 2600, "modulo"),
    (True, "off", True, False, COPY, False, 1200, "modulo"),
    (True, "heavy", False, False, COPY, False, 1200, "modulo"),
    (True, "heavy", True, False, COPY, False, 1000, "modulo"),
    (False, "off", False, False, COPY, False, 1200, "modulo"),
    (False, "off", True, False, COPY, False, 1000, "modulo"),
    (False, "heavy", False, False, COPY, False, 1000, "modulo"),
    (False, "heavy", True, False, COPY, False, 1000, "modulo"),
    (True, "off", False, True, COPY, False, 1200, "modulo"),
    (False, "heavy", False, "full", COPY, False, 1000, "modulo"),
    (True, "off", False, False, 0, False, 1000, "modulo"),
    (True, "off", False, False, COPY, False, 1200, "keyed:epoch=3000"),
    (True, "off", False, False, COPY, False, 1000, "keyed:epoch=700"),
    (True, "off", False, False, 0, False, 1000, "keyed:epoch=3000"),
    (True, "off", False, True, COPY, False, 1000, "keyed:epoch=3000"),
    (True, "off", False, False, COPY, False, 1000, "skewed:partitions=2"),
    (False, "off", False, False, COPY, False, 1000, "skewed:partitions=2"),
    (True, "off", False, False, COPY, True, 1000, "modulo"),
]

assert sum(case[-2] for case in MATRIX) >= 10_000

WAYS = MachineConfig().scaled_down().cache.ways

# (MATRIX row, DDIO way cap, warm, branches its bursts must reach): the
# bursting rows again at seed 41, the modulo row also at caps 1 and
# ``ways``; None keeps the row's cap of 2.  ``warm`` first fills every set
# with dirty CPU lines.
_IO_BY_FILL = "I/O victims of fills"
_CPU_BY_FILL = "CPU victims of fills"
_FREE_WAY = "cap evictions beside a free way"
BURST_SEED = 41
BURST_ROWS = [
    (MATRIX[0], None, False, (_IO_BY_FILL, _FREE_WAY)),
    (MATRIX[0], None, True, (_IO_BY_FILL, _CPU_BY_FILL)),
    (MATRIX[0], 1, True, (_IO_BY_FILL, _CPU_BY_FILL)),
    (MATRIX[0], WAYS, True, (_CPU_BY_FILL,)),
    (MATRIX[10], None, True, (_IO_BY_FILL, _CPU_BY_FILL)),
    (MATRIX[11], None, True, (_IO_BY_FILL, _CPU_BY_FILL, _FREE_WAY)),
]


def _matrix_seed(ddio, faults, partition, randomize, copy_threshold, *_rest) -> int:
    return (
        1000 * ddio
        + 100 * (faults == "heavy")
        + 10 * partition
        + (2 if randomize == "full" else int(randomize))
        + 5 * (copy_threshold == 0)
    )


# Every row as (*MATRIX row, seed, DDIO way cap, warm, branches to reach).
DATAPATH_ROWS = [(*row, _matrix_seed(*row), None, False, ()) for row in MATRIX] + [
    (*row, BURST_SEED, ways, warm, reach) for row, ways, warm, reach in BURST_ROWS
]
DATAPATH_IDS = [
    f"ddio={d}-faults={f}-part={p}-rand={r}"
    + (f"-copy={c}" if c != COPY else "")
    + (f"-{b}" if b != "modulo" else "")
    + ("-l1" if h else "")
    for d, f, p, r, c, h, _, b in MATRIX
] + [
    f"{row[-1]}-copy={row[4]}-cap={ways or 2}" + ("-warm" if warm else "")
    for row, ways, warm, _reach in BURST_ROWS
]


def _count_burst_branches(monkeypatch) -> collections.Counter:
    """From here on, count over every burst the engine applies the
    branches of its pass that the burst rows must reach: skb writes,
    dirty victims and the victims of fills from the burst's counts, and,
    from the state before it, fills that open their set's ops by hitting
    a CPU line or by missing in a set at the DDIO cap with a free way."""
    seen: collections.Counter = collections.Counter()
    apply = CacheEngine.rx_burst_apply

    def counted(engine, flats, lines, kinds, stamp_offs, total_ops, io_cap):
        opened = set()
        for flat, line, kind in zip(flats, lines, kinds):
            if flat in opened:
                continue
            opened.add(flat)
            if kind == 0:
                flags = engine.flags_of(line)
                seen["fills hitting a CPU line"] += (
                    flags is not None and not flags & LINE_IO
                )
                seen[_FREE_WAY] += (
                    flags is None
                    and engine.io_count(flat) >= io_cap
                    and engine.size(flat) < engine.ways
                )
        counts = apply(engine, flats, lines, kinds, stamp_offs, total_ops, io_cap)
        seen["skb writes"] += kinds.count(2)
        seen["dirty victims"] += counts.dirty_victims
        seen[_IO_BY_FILL] += counts.io_by_fill
        seen[_CPU_BY_FILL] += len(counts.cpu_by_fill)
        return counts

    monkeypatch.setattr(CacheEngine, "rx_burst_apply", counted)
    return seen


@pytest.mark.parametrize(
    "ddio,faults,partition,randomize,copy_threshold,l1,n_frames,backend,"
    "seed,ddio_ways,warm,reach",
    DATAPATH_ROWS,
    ids=DATAPATH_IDS,
)
def test_rx_datapath_equivalence(
    ddio, faults, partition, randomize, copy_threshold, l1, n_frames, backend,
    seed, ddio_ways, warm, reach, monkeypatch,
):
    config = (ddio, faults, partition, randomize, copy_threshold, backend)
    setup = dict(l1=l1, ddio_ways=ddio_ways, warm=warm)
    legacy = build_machine(True, *config, **setup)
    batched = build_machine(False, *config, **setup)
    trace_a = run_workload(legacy, seed, n_frames)
    if reach:
        seen = _count_burst_branches(monkeypatch)
    trace_b = run_workload(batched, seed, n_frames)
    assert trace_a == trace_b, "probe latency traces diverged"
    a, b = full_state(legacy), full_state(batched)
    for key in a:
        assert a[key] == b[key], f"{key} diverged"
    # The workload actually delivered frames through the datapath.
    assert batched.nic.stats.frames > 0
    assert batched.driver.stats.frames > 0
    if batched.llc.mapping.epoch_period:
        assert batched.llc.mapping_epoch >= 2  # re-keys landed in the run
    if l1:
        assert batched.evicted_lines  # the hook saw the run's evictions
    if reach:
        for what in ("skb writes", "dirty victims", "fills hitting a CPU line", *reach):
            assert seen[what], what


def test_bursts_actually_used():
    """The burst drain path really engages on the eligible configs, under
    a static and a keyed index (so the equivalence above covers it, not
    just the scalar fallback)."""
    for backend in ("modulo", "keyed:epoch=3000"):
        m = build_machine(False, True, "off", False, False, backend=backend)
        drained = []
        src = MixedStream(3, count=200, rate_pps=400_000.0)
        orig = src._drain

        def spy_drain(event, limit, orig=orig):
            drained.append(event.time)
            return orig(event, limit)

        burst_ops = []
        rx_burst = m.llc.rx_burst

        def spy_rx_burst(*args, rx_burst=rx_burst):
            burst_ops.append(args[-2])
            return rx_burst(*args)

        src._drain = spy_drain
        m.llc.rx_burst = spy_rx_burst
        src.attach(m, m.nic)
        m.drain_events()
        assert src.sent == 200
        # Far fewer drain invocations than frames: frames were bursted ...
        assert 0 < len(drained) < 200 / 2, backend
        # ... and their cache work went through the burst kernel.
        assert len(burst_ops) > 0 and sum(burst_ops) > 200, backend


def _assert_same_llc(a: SlicedLLC, b: SlicedLLC) -> None:
    """Same tags, flags, stamps, directory, counters, stats and traffic."""
    ea, eb = a.engine, b.engine
    assert np.array_equal(ea.tags, eb.tags)
    assert np.array_equal(ea.flags, eb.flags)
    assert np.array_equal(ea.stamps, eb.stamps)
    assert ea._dir == eb._dir
    assert (ea._size, ea._n_io, ea._tick) == (eb._size, eb._n_io, eb._tick)
    assert a.stats.snapshot() == b.stats.snapshot()
    assert (a.traffic.reads, a.traffic.writes) == (b.traffic.reads, b.traffic.writes)


#: The ``CacheStats`` counters a burst books (all but ``invalidations``).
BURST_BOOKED = (
    "io_hits", "io_fills", "cpu_hits", "cpu_misses", "writebacks",
    "io_evicted_io", "cpu_evicted_io", "io_evicted_cpu",
)


def test_burst_paths_agree_on_random_streams():
    """``SlicedLLC.rx_burst`` against a loop on a deep copy of the LLC —
    ``io_write`` for a fill, ``cpu_access`` for a read or a write — over
    random op streams on a 4-set, 4-way LLC, where every branch of the
    burst pass runs often: CPU ops evicting I/O lines among them, which
    the rx workloads above never make.  Each burst runs at a DDIO cap
    from 1 to ``ways``.  A flush of a random line between bursts leaves
    free ways in front of occupied ones, where a cap eviction's fill
    takes the free way."""
    rng = np.random.default_rng(23)
    geometry = CacheGeometry(n_slices=1, sets_per_slice=4, ways=4)
    burst = SlicedLLC(geometry=geometry, slice_hash=ModuloSliceHash(1))
    loop = copy.deepcopy(burst)
    shift = geometry.offset_bits
    booked: collections.Counter = collections.Counter()
    for _ in range(400):
        n = int(rng.integers(1, 40))
        lines = (rng.integers(0, 4, n) + 4 * rng.integers(0, 6, n)).tolist()
        kinds = rng.integers(0, 3, n).tolist()
        burst.ddio = loop.ddio = DDIOConfig(write_allocate_ways=int(rng.integers(1, 5)))
        before = burst.stats.snapshot()
        burst.rx_burst(lines, kinds, list(range(n)), n, 0)
        booked.update(burst.stats.delta(before).snapshot())
        for line, kind in zip(lines, kinds):
            if kind == 0:
                loop.io_write(line << shift)
            else:
                loop.cpu_access(line << shift, write=kind == 2)
        _assert_same_llc(burst, loop)
        line = int(rng.integers(0, 24))
        burst.flush(line << shift)
        loop.flush(line << shift)
    assert all(booked[name] for name in BURST_BOOKED), booked


def test_keyed_buffer_lines_sit_in_distinct_sets():
    """Over several keyed epochs, every ring buffer's lines, in both page
    halves, sit in distinct sets.  The burst template folds a frame's
    re-touches of its own buffer lines as hits, which needs this: for a
    fixed tag the keyed index is a permutation, and a buffer never
    crosses a tag boundary."""
    m = build_machine(False, True, "off", False, False, backend="keyed:epoch=3000")
    llc = m.llc
    size = m.ring.config.buffer_size
    offsets = np.arange(0, 2 * size, llc.geometry.line_size, dtype=np.int64)
    for _epoch in range(4):
        for buffer in m.ring.buffers:
            page_flats, _lines = llc.decompose_many(buffer.page_paddr + offsets)
            for half in np.split(page_flats, 2):
                assert len(np.unique(half)) == len(half)
        llc._rekey(m.clock.now)
    assert llc.mapping_epoch == 4


def test_burst_window_respects_other_events():
    """A foreign event bounds the drain window: it must fire at its exact
    time relative to frame deliveries, as in the scalar path."""
    order_burst: list[tuple[str, int]] = []
    m = build_machine(False, True, "off", False, False)
    src = MixedStream(9, count=50, rate_pps=400_000.0)
    src.attach(m, m.nic)
    mid = m.clock.now + 60_000
    m.events.schedule(mid, lambda: order_burst.append(("tick", m.clock.now)))
    m.drain_events()
    assert order_burst == [("tick", mid)]
    assert any(r.time > mid for r in m.driver.receive_log)
    assert any(r.time < mid for r in m.driver.receive_log)
