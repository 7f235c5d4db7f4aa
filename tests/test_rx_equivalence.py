"""Differential equivalence: batched rx datapath vs the frozen scalar one.

The refactor replaced the NIC's per-block ``io_write`` loop and the
driver's per-block ``cpu_access`` loops with batched engine calls over
precomputed block templates, and taught the event loop to drain frame
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
"""

from __future__ import annotations

import dataclasses
import random

import pytest

import numpy as np

from repro.core.config import DDIOConfig, MachineConfig, RingConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition, PartitionConfig
from repro.defense.randomization import FullRandomizer, PartialRandomizer
from repro.faults.profiles import get_profile
from repro.net.packet import Frame
from repro.net.traffic import PoissonNoise, TrafficSource
from repro.nic.legacy import install_legacy_nic

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
) -> Machine:
    cfg = MachineConfig().scaled_down()
    cfg.cache_backend = backend
    cfg.ddio = DDIOConfig(
        enabled=ddio, write_allocate_ways=cfg.ddio.write_allocate_ways
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
        "now": m.clock.now,
    }


# (ddio, faults, partition, randomize, copy_threshold, n_frames, backend),
# where randomize is False, True (partial: permute the ring every 16
# packets) or "full" (a fresh page per packet); >= 10k frames in total.
# The keyed rows run with DDIO on and no faults, where bursts engage;
# epoch=700 re-keys inside most burst windows.
MATRIX = [
    (True, "off", False, False, COPY, 2600, "modulo"),
    (True, "off", True, False, COPY, 1200, "modulo"),
    (True, "heavy", False, False, COPY, 1200, "modulo"),
    (True, "heavy", True, False, COPY, 1000, "modulo"),
    (False, "off", False, False, COPY, 1200, "modulo"),
    (False, "off", True, False, COPY, 1000, "modulo"),
    (False, "heavy", False, False, COPY, 1000, "modulo"),
    (False, "heavy", True, False, COPY, 1000, "modulo"),
    (True, "off", False, True, COPY, 1200, "modulo"),
    (False, "heavy", False, "full", COPY, 1000, "modulo"),
    (True, "off", False, False, 0, 1000, "modulo"),
    (True, "off", False, False, COPY, 1200, "keyed:epoch=3000"),
    (True, "off", False, False, COPY, 1000, "keyed:epoch=700"),
    (True, "off", False, False, 0, 1000, "keyed:epoch=3000"),
    (True, "off", False, True, COPY, 1000, "keyed:epoch=3000"),
]

assert sum(case[-2] for case in MATRIX) >= 10_000


@pytest.mark.parametrize(
    "ddio,faults,partition,randomize,copy_threshold,n_frames,backend",
    MATRIX,
    ids=[
        f"ddio={d}-faults={f}-part={p}-rand={r}"
        + (f"-copy={c}" if c != COPY else "")
        + (f"-{b}" if b != "modulo" else "")
        for d, f, p, r, c, _, b in MATRIX
    ],
)
def test_rx_datapath_equivalence(
    ddio, faults, partition, randomize, copy_threshold, n_frames, backend
):
    seed = (
        1000 * ddio
        + 100 * (faults == "heavy")
        + 10 * partition
        + (2 if randomize == "full" else int(randomize))
        + 5 * (copy_threshold == 0)
    )
    config = (ddio, faults, partition, randomize, copy_threshold, backend)
    legacy = build_machine(True, *config)
    batched = build_machine(False, *config)
    trace_a = run_workload(legacy, seed, n_frames)
    trace_b = run_workload(batched, seed, n_frames)
    assert trace_a == trace_b, "probe latency traces diverged"
    a, b = full_state(legacy), full_state(batched)
    for key in a:
        assert a[key] == b[key], f"{key} diverged"
    # The workload actually delivered frames through the datapath.
    assert batched.nic.stats.frames > 0
    assert batched.driver.stats.frames > 0
    if backend != "modulo":
        assert batched.llc.mapping_epoch >= 2  # re-keys landed in the run


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


def test_templates_follow_the_keyed_epoch():
    """Over several keyed epochs: the rx templates equal a fresh
    decomposition (the first use after a re-key recomputes them, skb slab
    included), and every ring buffer's lines, in both page halves, sit in
    distinct sets.  The burst template folds a frame's re-touches of its
    own buffer lines as hits, which needs the latter: for a fixed tag the
    keyed index is a permutation, and a buffer never crosses a tag
    boundary."""
    m = build_machine(False, True, "off", False, False, backend="keyed:epoch=3000")
    llc, templates = m.llc, m.driver.templates
    size = m.ring.config.buffer_size
    offsets = np.arange(0, 2 * size, llc.geometry.line_size, dtype=np.int64)
    for _epoch in range(4):
        skb = templates.skb()
        fresh = llc.decompose_many(m.driver._skb_paddrs)
        assert all(np.array_equal(a, b) for a, b in zip(skb, fresh))
        for buffer in m.ring.buffers:
            paddrs, flats, lines = templates.decomp(buffer.dma_paddr)
            fresh = llc.decompose_many(paddrs)
            assert all(np.array_equal(a, b) for a, b in zip((flats, lines), fresh))
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
