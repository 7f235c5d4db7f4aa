"""Differential test: the chaser's quiescent-poll fast-forward.

``PacketChaser.wait_for_fill`` applies runs of quiet clock polls in one
step (:meth:`SetSweep.fast_forward`).  The plain polling loop is kept
here as the reference: every case runs one seeded chase twice on
identically built machines — through the fast-forward and through
:func:`reference_wait_for_fill` — and compares everything a poll can
touch: the chase result, the clock, LLC and NIC statistics, the engine's
packed arrays and tick, the mapping epoch and access count, and the
metrics registry of an enabled-metrics session.

The matrix covers {modulo, keyed (re-keys land inside waits), skewed} x
DDIO on/off x poll gap 12 000 / 0 cycles x adaptive supervisor off/on.
Further cases cover the partition defense, fault plans (the ``light``
profile, and timer jitter alone) and a deaf spy whose threshold reads
every miss as a hit, and check that the fast-forward actually runs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest

from repro.attack.adaptive import AdaptiveConfig, AdaptiveSupervisor
from repro.attack.chase import BufferMonitor
from repro.attack.primeprobe import SetSweep
from repro.attack.setup import MonitorFactory
from repro.attack.timing import LatencyThreshold
from repro.core.config import DDIOConfig, FaultConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.faults import get_profile
from repro.net.traffic import PoissonNoise, TraceReplay
from repro.telemetry.context import Telemetry

#: Ring descriptors: a short ring keeps the lost-sync give-up (n + 4 x ring
#: timeouts) cheap for the reference loop.
RING = 8
N_PACKETS = 40


def reference_wait_for_fill(chaser, monitor, timeout_cycles, poll_wait=0):
    """The plain polling loop: one exact clock probe per iteration."""
    machine = chaser.process.machine
    deadline = machine.clock.now + timeout_cycles
    while machine.clock.now < deadline:
        if monitor.clock_active():
            return True
        if poll_wait:
            machine.idle(poll_wait)
    return False


def _config(
    backend: str, ddio: bool, faults: str | FaultConfig | None
) -> MachineConfig:
    cfg = MachineConfig().scaled_down()
    cfg = replace(
        cfg,
        ddio=DDIOConfig(enabled=ddio),
        ring=replace(cfg.ring, n_descriptors=RING),
        cache_backend=backend,
    )
    if isinstance(faults, str):
        faults = get_profile(faults)
    if faults is not None:
        cfg = replace(cfg, faults=faults)
    return cfg


def _supervisor(factory, spy) -> AdaptiveSupervisor:
    buffers = [factory.buffer_at(i) for i in range(RING)]

    def healer():
        return [
            factory.monitor_for_buffer(buffer, name=f"buf{i}")
            for i, buffer in enumerate(buffers)
        ]

    return AdaptiveSupervisor(
        spy,
        AdaptiveConfig(chase_timeout_patience=2, cooldown_sweeps=0),
        healer=healer,
        factory=factory,
    )


def _run_chase(
    reference: bool,
    backend: str = "modulo",
    ddio: bool = True,
    poll_wait: int = 12_000,
    adaptive: bool = False,
    partition: bool = False,
    faults: str | FaultConfig | None = None,
    deaf: bool = False,
    evset_ways: int | None = None,
    metrics: bool = True,
    seed: int = 7,
    gap_periods: tuple[int, ...] = (3, 10, 150),
    noise_periods: int | None = 50,
) -> dict:
    """One seeded chase; returns everything a poll can touch.

    Traffic timescales are in poll periods (probe + ``poll_wait``) so the
    two poll gaps see the same mix of fills, noise, timeouts and re-keys.
    """
    cfg = _config(backend, ddio, faults)
    telemetry = Telemetry.create(trace=False, metrics=True) if metrics else None
    machine = Machine(cfg, telemetry=telemetry)
    machine.install_nic()
    if partition:
        AdaptivePartition().install(machine)
    spy = machine.new_process("spy")
    # A deaf spy's threshold sits above the miss latency: no poll ever
    # reports a fill, so only the all-hit time check tells a poll that
    # missed (and refilled) from a quiet one.
    threshold = LatencyThreshold(70.0, 230.0, 1e6) if deaf else None
    factory = MonitorFactory(machine, spy, threshold, huge_pages=4)
    if evset_ways is not None:
        factory.builder.ways = evset_ways
    chaser = factory.full_ring_chaser()
    if adaptive:
        chaser.supervisor = _supervisor(factory, spy)
    if reference:
        chaser.wait_for_fill = functools.partial(reference_wait_for_fill, chaser)

    timing = cfg.timing
    # One poll of the default monitors: two 8-way clock sets, all hits.
    period = poll_wait + 16 * (timing.llc_hit_latency + timing.measure_overhead)
    hz = machine.clock.frequency_hz
    rng = random.Random(seed)
    load = [
        (rng.choice(gap_periods) * period / hz, rng.choice((64, 256, 700, 1514)))
        for _ in range(N_PACKETS)
    ]
    TraceReplay(load).attach(machine, machine.nic)
    if noise_periods is not None:
        PoissonNoise(hz / (noise_periods * period), random.Random(seed + 1)).attach(
            machine, machine.nic
        )
    size_wait = 0 if ddio else timing.payload_touch_delay + timing.io_to_driver_latency
    result = chaser.chase(
        N_PACKETS,
        timeout_cycles=40 * period,
        poll_wait=poll_wait,
        size_wait=size_wait,
    )
    llc = machine.llc
    engine = llc.engine
    state = {
        "result": result,
        "clock": machine.clock.now,
        "llc_stats": llc.stats.snapshot(),
        "nic_stats": machine.nic.stats.snapshot(),
        "tags": engine.tags.tobytes(),
        "flags": engine.flags.tobytes(),
        "stamps": engine.stamps.tobytes(),
        "tick": engine._tick,
        "epoch": llc.mapping_epoch,
        "accesses": llc._access_count,
        "metrics": telemetry.metrics.snapshot() if telemetry is not None else None,
        "heals": chaser.supervisor.stats.to_dict() if adaptive else None,
    }
    return state


def _count_polls(monkeypatch) -> dict[str, int]:
    calls = {"n": 0}
    original = BufferMonitor.clock_active

    def counted(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(BufferMonitor, "clock_active", counted)
    return calls


@pytest.fixture
def fast_forwards(monkeypatch) -> list[bool]:
    """One entry per fast-forward: whether it stopped at the epoch boundary
    (fewer accesses left than one poll makes)."""
    log: list[bool] = []
    original = SetSweep.fast_forward

    def recording(self, k):
        original(self, k)
        llc = self.process.machine.llc
        log.append(
            bool(llc.mapping.epoch_period)
            and llc.accesses_until_rekey() < self.n_accesses
        )

    monkeypatch.setattr(SetSweep, "fast_forward", recording)
    return log


def _assert_same(**kwargs) -> dict:
    fast = _run_chase(reference=False, **kwargs)
    slow = _run_chase(reference=True, **kwargs)
    for key in slow:
        assert fast[key] == slow[key], key
    return fast


MATRIX = [
    (backend, ddio, poll_wait, adaptive)
    for backend in ("modulo", "keyed:epoch=30000", "skewed:partitions=2")
    for ddio in (True, False)
    for poll_wait in (12_000, 0)
    for adaptive in (False, True)
]


@pytest.mark.parametrize(
    "backend,ddio,poll_wait,adaptive",
    MATRIX,
    ids=[
        f"{b.split(':')[0]}-ddio{int(d)}-wait{w}-adaptive{int(a)}"
        for b, d, w, a in MATRIX
    ],
)
def test_fast_forward_matches_polling_loop(backend, ddio, poll_wait, adaptive):
    state = _assert_same(
        backend=backend, ddio=ddio, poll_wait=poll_wait, adaptive=adaptive
    )
    assert state["result"].packets_seen > 0


@pytest.mark.parametrize("poll_wait", [12_000, 0])
def test_rekeys_bound_fast_forwards(fast_forwards, poll_wait):
    """Re-keys land inside waits: some fast-forwards stop at the epoch
    boundary, the re-key then fires in an exact poll, and the run still
    matches the polling loop."""
    state = _assert_same(
        backend="keyed:epoch=30000",
        poll_wait=poll_wait,
        gap_periods=(4, 12, 600),
        noise_periods=None,
    )
    assert any(fast_forwards)
    assert state["epoch"] >= 1


def test_partition_defense(fast_forwards):
    # No guard: hits never consult the partition, and its adaptation
    # tick is an event, so it only bounds k.  Four-line sets fit the CPU
    # partition, so polls are quiet rather than self-evicting; with no
    # poll gap several polls fit between two ticks.
    _assert_same(partition=True, poll_wait=0, evset_ways=4)
    assert fast_forwards


def test_light_faults(fast_forwards):
    # Per-access timer jitter draws cannot be skipped: every poll is exact.
    _assert_same(faults="light")
    assert not fast_forwards


def test_jitter_draws_are_never_skipped(fast_forwards):
    # One-line sets and a 0..1-cycle jitter: a quarter of the polls draw
    # no jitter at all and take exactly the all-hit time, yet skipping
    # them would skip their draws.  The fault-plan guard alone stops it.
    _assert_same(faults=FaultConfig(probe_jitter_cycles=1), evset_ways=1)
    assert not fast_forwards


@pytest.mark.parametrize("poll_wait", [12_000, 0])
def test_deaf_spy(fast_forwards, poll_wait):
    state = _assert_same(deaf=True, poll_wait=poll_wait)
    assert state["result"].packets_seen == 0
    assert fast_forwards


def test_deaf_spy_with_self_evicting_sets(fast_forwards):
    # Nine lines in an eight-way set: every poll misses, yet reports no
    # fill.  Only the all-hit time check keeps these polls exact.
    state = _assert_same(deaf=True, evset_ways=9)
    assert state["result"].packets_seen == 0
    assert not fast_forwards


def test_untelemetered_run():
    _assert_same(metrics=False, backend="keyed:epoch=30000", poll_wait=0)


def test_quiet_wait_skips_most_polls(monkeypatch):
    quiet = dict(gap_periods=(300,), noise_periods=None, metrics=False)
    calls = _count_polls(monkeypatch)
    fast = _run_chase(reference=False, **quiet)
    fast_polls = calls["n"]
    calls["n"] = 0
    slow = _run_chase(reference=True, **quiet)
    assert fast == slow
    assert calls["n"] >= 10 * fast_polls
