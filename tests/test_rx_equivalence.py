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

A burst is applied by one of two engine paths, chosen by its length: an
in-order scalar pass for short bursts, the round-by-rank kernel for long
ones.  ``test_burst_paths_agree`` runs every burst of a few MATRIX
workloads through both from one engine snapshot, and cuts long bursts one
op either side of the switch.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import sys

import pytest

import numpy as np

from repro.cache import engine as engine_module
from repro.cache.cacheset import LINE_IO
from repro.cache.engine import CacheEngine
from repro.cache.hierarchy import CacheHierarchy
from repro.core.config import DDIOConfig, MachineConfig, RingConfig
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


@pytest.mark.parametrize(
    "ddio,faults,partition,randomize,copy_threshold,l1,n_frames,backend",
    MATRIX,
    ids=[
        f"ddio={d}-faults={f}-part={p}-rand={r}"
        + (f"-copy={c}" if c != COPY else "")
        + (f"-{b}" if b != "modulo" else "")
        + ("-l1" if h else "")
        for d, f, p, r, c, h, _, b in MATRIX
    ],
)
def test_rx_datapath_equivalence(
    ddio, faults, partition, randomize, copy_threshold, l1, n_frames, backend
):
    seed = (
        1000 * ddio
        + 100 * (faults == "heavy")
        + 10 * partition
        + (2 if randomize == "full" else int(randomize))
        + 5 * (copy_threshold == 0)
    )
    config = (ddio, faults, partition, randomize, copy_threshold, backend)
    legacy = build_machine(True, *config, l1=l1)
    batched = build_machine(False, *config, l1=l1)
    trace_a = run_workload(legacy, seed, n_frames)
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


SWITCH = engine_module.ROUND_KERNEL_MIN_OPS
WAYS = MachineConfig().scaled_down().cache.ways
_APPLY = CacheEngine.rx_burst_apply


def _clone(engine: CacheEngine) -> CacheEngine:
    """An independent copy of ``engine``'s state."""
    copy = CacheEngine(engine.n_sets, engine.ways)
    copy.tags[:] = engine.tags
    copy.flags[:] = engine.flags
    copy.stamps[:] = engine.stamps
    copy._size = list(engine._size)
    copy._n_io = list(engine._n_io)
    copy._dir = dict(engine._dir)
    copy._tick = engine._tick
    return copy


def _same_engine(a: CacheEngine, b: CacheEngine) -> bool:
    return (
        np.array_equal(a.tags, b.tags)
        and np.array_equal(a.flags, b.flags)
        and np.array_equal(a.stamps, b.stamps)
        and (a._size, a._n_io, a._dir, a._tick) == (b._size, b._n_io, b._dir, b._tick)
    )


def _apply_forced(engine: CacheEngine, burst: tuple, rounds: bool):
    """``rx_burst_apply`` with the switch forced to one side."""
    saved = engine_module.ROUND_KERNEL_MIN_OPS
    engine_module.ROUND_KERNEL_MIN_OPS = 0 if rounds else sys.maxsize
    try:
        return _APPLY(engine, *burst)
    finally:
        engine_module.ROUND_KERNEL_MIN_OPS = saved


def _prefix(burst: tuple, k: int) -> tuple:
    """The first ``k`` ops of a burst, as a burst of their own."""
    flats, lines, kinds, offs, _total, cap = burst
    return flats[:k], lines[:k], kinds[:k], offs[:k], max(offs[:k]) + 1, cap


# (MATRIX row, DDIO way cap, warm, victims the run must show): bursting
# rows, the modulo row also at caps 1 and ``ways``; None keeps the row's
# cap of 2.  ``warm`` first fills every set with dirty CPU lines.
_IO_BY_FILL = "I/O victims of fills"
_CPU_BY_FILL = "CPU victims of fills"
_FREE_WAY = "cap evictions beside a free way"
BURST_PATH_CASES = [
    (MATRIX[0], None, False, (_IO_BY_FILL, _FREE_WAY)),
    (MATRIX[0], None, True, (_IO_BY_FILL, _CPU_BY_FILL)),
    (MATRIX[0], 1, True, (_IO_BY_FILL, _CPU_BY_FILL)),
    (MATRIX[0], WAYS, True, (_CPU_BY_FILL,)),
    (MATRIX[10], None, True, (_IO_BY_FILL, _CPU_BY_FILL)),
    (MATRIX[11], None, True, (_IO_BY_FILL, _CPU_BY_FILL, _FREE_WAY)),
]


@pytest.mark.parametrize(
    "row,ddio_ways,warm,victims",
    BURST_PATH_CASES,
    ids=[
        f"{row[-1]}-copy={row[4]}-cap={ways or 2}" + ("-warm" if warm else "")
        for row, ways, warm, _victims in BURST_PATH_CASES
    ],
)
def test_burst_paths_agree(row, ddio_ways, warm, victims, monkeypatch):
    """The in-order pass and the round kernel apply every burst of a MATRIX
    workload alike: each burst runs through both, forced, from one engine
    snapshot, and they must leave the same tags, flags, stamps, tick,
    directory, per-set sizes and I/O counts and return the same counts.
    Bursts that reach the switch are also cut one op either side of it,
    where the unforced call must take the expected path and agree with
    the other.  The run itself goes on through the unforced call, and it
    must reach the round kernel: no experiment's burst does."""
    ddio, faults, partition, randomize, copy_threshold, l1, n_frames, backend = row
    m = build_machine(
        False, ddio, faults, partition, randomize, copy_threshold, backend, l1,
        ddio_ways=ddio_ways,
    )
    if warm:
        geom = m.llc.geometry
        size = 2 * geom.total_sets * geom.ways * geom.line_size
        hog = m.new_process("hog")
        base = hog.mmap(size // 4096)
        hog.access_many(range(base, base + size, geom.line_size), write=True)
    taken: collections.Counter = collections.Counter()
    for name in ("_rx_in_order", "_rx_rounds"):
        def counted(self, *args, name=name, method=getattr(CacheEngine, name)):
            taken[name] += 1
            return method(self, *args)

        monkeypatch.setattr(CacheEngine, name, counted)
    seen: collections.Counter = collections.Counter()
    run_paths: collections.Counter = collections.Counter()

    def checked(engine, *burst):
        flats, lines, kinds = (np.asarray(a) for a in burst[:3])
        in_order, rounds = _clone(engine), _clone(engine)
        counts = _apply_forced(in_order, burst, rounds=False)
        assert _apply_forced(rounds, burst, rounds=True) == counts
        assert _same_engine(in_order, rounds)
        seen["rounds"] = max(seen["rounds"], int(np.bincount(flats).max()))
        seen["skb writes"] += int((kinds == 2).sum())
        seen["dirty victims"] += counts.dirty_victims
        seen[_IO_BY_FILL] += counts.io_by_fill
        seen[_CPU_BY_FILL] += len(counts.cpu_by_fill)
        _sets, firsts = np.unique(flats, return_index=True)
        for i in firsts[kinds[firsts] == 0].tolist():
            flat = int(flats[i])
            flags = engine.flags_of(flat, int(lines[i]))
            seen["fills hitting a CPU line"] += flags is not None and not flags & LINE_IO
            seen[_FREE_WAY] += (
                flags is None
                and engine.io_count(flat) >= burst[-1]
                and engine.size(flat) < engine.ways
            )
        if len(flats) >= SWITCH:
            for k, path, other_is_rounds in (
                (SWITCH - 1, "_rx_in_order", True),
                (SWITCH, "_rx_rounds", False),
            ):
                cut = _prefix(burst, k)
                dispatched, forced = _clone(engine), _clone(engine)
                before = taken[path]
                cut_counts = _APPLY(dispatched, *cut)
                assert taken[path] == before + 1
                assert _apply_forced(forced, cut, rounds=other_is_rounds) == cut_counts
                assert _same_engine(dispatched, forced)
                seen["switch edges"] += 1
        before = taken["_rx_rounds"]
        result = _APPLY(engine, *burst)
        run_paths["rounds" if taken["_rx_rounds"] > before else "in order"] += 1
        assert result == counts and _same_engine(engine, in_order)
        return result

    monkeypatch.setattr(CacheEngine, "rx_burst_apply", checked)
    run_workload(m, seed=41, n_frames=n_frames)
    assert run_paths["rounds"] and run_paths["in order"]
    assert seen["switch edges"] and seen["rounds"] >= 3
    for what in ("skb writes", "dirty victims", "fills hitting a CPU line", *victims):
        assert seen[what], what


def test_burst_paths_agree_on_random_streams():
    """Random op streams on a 4-set, 4-way engine, where every branch of
    both paths runs often — CPU ops evicting I/O lines among them, which
    the rx workloads above never make.  Each burst runs through both
    paths from one snapshot, at a DDIO cap from 1 to ``ways``; the run
    goes on from their common result.  A flush of a random line between
    bursts leaves free ways in front of occupied ones, where a cap
    eviction's fill takes the free way."""
    rng = np.random.default_rng(23)
    engine = CacheEngine(4, 4)
    seen: collections.Counter = collections.Counter()
    for _ in range(400):
        n = int(rng.integers(1, 40))
        flats = rng.integers(0, 4, n)
        burst = (
            flats.tolist(),
            (flats + 4 * rng.integers(0, 6, n)).tolist(),
            rng.integers(0, 3, n).tolist(),
            list(range(n)),
            n,
            int(rng.integers(1, 5)),
        )
        other = _clone(engine)
        counts = _apply_forced(engine, burst, rounds=False)
        assert _apply_forced(other, burst, rounds=True) == counts
        assert _same_engine(engine, other)
        for field, value in counts._asdict().items():
            seen[field] += value if isinstance(value, int) else len(value)
        line = int(rng.integers(0, 24))
        engine.invalidate(line % 4, line)
    assert all(seen[field] for field in counts._fields), seen


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
