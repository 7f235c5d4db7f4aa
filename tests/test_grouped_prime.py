"""Grouped primes against the per-set ``es.prime()`` loops they replace.

Every multi-set prime is one untimed traversal
(:func:`repro.attack.evictionset.prime_sets`): the concatenation of each
set's current orientation, in one ``Machine.cpu_access_many`` call.  The
functions below keep the per-set loops the sites ran before.  Mirrored
machines run the same attacker code, one through the grouped sites and
one through those loops, and must leave identical state:

* sites: ``BufferMonitor.prime``, ``PacketChaser.prime_all`` over the
  full ring (whose buffers share sets, so a shared set is traversed once
  per buffer), ``ProbeMonitor.prime`` (untraced and inside its tracer
  span), and the covert receiver's ``listen`` and ``_relock``;
* the modulo, keyed (a 700-access epoch, so re-keys land inside ring
  primes) and skewed index backends, each with DDIO on and off; a machine
  with a partition installed, and the ``light`` fault profile;
* 64-B broadcasts at 1 Mpps, so frames land inside the primes, and a
  marker event per prime that flushes one of the lines being primed.

Compared: the clock, the engine's arrays, tick and directory, LLC stats
and DRAM traffic, the mapping's stats and epoch, NIC and driver stats and
the ring head, every event fired (with its time) and still pending, the
metrics, and every set's ``version``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from repro.attack import covert
from repro.attack.adaptive import RecoveryEvent
from repro.attack.covert import CovertReceiver
from repro.attack.primeprobe import ProbeMonitor
from repro.attack.setup import (
    MonitorFactory,
    adaptive_covert_supervisor,
    spaced_positions,
    unique_buffer_positions,
)
from repro.core.config import MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.faults.profiles import get_profile
from repro.net.traffic import ConstantStream
from repro.telemetry.context import Telemetry


# ----------------------------------------------------------------------
# The per-set loops
# ----------------------------------------------------------------------
def _buffer_prime_loop(monitor) -> None:
    """``BufferMonitor.prime`` as one ``es.prime()`` per set."""
    for es in monitor.blocks.values():
        es.prime()
    for es in monitor.alt_blocks.values():
        es.prime()


def _ring_prime_loop(chaser) -> None:
    """``PacketChaser.prime_all`` as one buffer prime after another."""
    for monitor in chaser.buffers:
        _buffer_prime_loop(monitor)


def _probe_monitor_prime_loop(monitor) -> None:
    """``ProbeMonitor.prime`` as one ``es.prime()`` per set."""
    for es in monitor.sets:
        es.prime()


def _covert_prime_loop(receiver) -> None:
    """The covert receiver's priming, stream by stream, set by set."""
    for stream in receiver.streams:
        for es in stream.sets():
            es.prime()


# ----------------------------------------------------------------------
# Mirrored machines and their observable state
# ----------------------------------------------------------------------
class _Rig:
    """One machine with a spy, a full-ring chaser, a covert receiver over
    two buffers (plus the streams of two others to heal to), a probe
    monitor over three buffers' sets, and broadcast traffic."""

    def __init__(self, backend: str, ddio: bool, faults: str, partition: bool,
                 trace: bool, grouped: bool) -> None:
        self.grouped = grouped
        base = MachineConfig().scaled_down()
        cfg = replace(
            base,
            ddio=replace(base.ddio, enabled=ddio),
            cache_backend=backend,
            faults=get_profile(faults),
        )
        machine = self.machine = Machine(
            cfg, telemetry=Telemetry.create(trace=trace, metrics=True)
        )
        self.fired: list[tuple[int, str]] = []
        schedule = machine.events.schedule

        def logging(time, action, label="", drain=None):
            # Frame ids count every frame built in the process, so only
            # the label's kind is kept.
            def logged():
                self.fired.append((machine.clock.now, label.split("#")[0]))
                return action()

            return schedule(time, logged, label=label, drain=drain)

        machine.events.schedule = logging
        machine.install_nic()
        if partition:
            AdaptivePartition().install(machine)
        self.spy = machine.new_process("spy")
        factory = MonitorFactory(machine, self.spy, huge_pages=4)
        self.chaser = factory.full_ring_chaser()
        ring_size = len(machine.ring.buffers)
        picked = spaced_positions(unique_buffer_positions(machine), 4, ring_size)
        self.receiver = CovertReceiver(
            self.spy,
            [factory.stream_monitors(p) for p in picked[:2]],
            supervisor=adaptive_covert_supervisor(factory, picked[:2]),
        )
        self.heal_streams = [factory.stream_monitors(p) for p in picked[2:]]
        self.probe_monitor = ProbeMonitor(
            self.spy, [es for m in self.chaser.buffers[:3] for es in m.sets()]
        )
        #: Frames and re-keys that landed inside a prime.
        self.frames_inside = 0
        self.rekeys_inside = 0
        ConstantStream(size=64, rate_pps=1_000_000, protocol="broadcast").attach(
            machine, machine.nic
        )

    def sets(self) -> list:
        """Every eviction set the rig holds, once each, in a fixed order."""
        seen: dict[int, object] = {}
        groups = [m.sets() for m in self.chaser.buffers]
        groups += [s.sets() for s in self.receiver.streams + self.heal_streams]
        groups.append(self.probe_monitor.sets)
        for group in groups:
            for es in group:
                seen.setdefault(id(es), es)
        return list(seen.values())

    def prime(self, sets, grouped, reference, delay: int) -> None:
        """Run one prime site, with a marker event ``delay`` cycles in that
        flushes the middle set's first line."""
        machine = self.machine
        target = int(sets[len(sets) // 2].prime_order()[0])
        machine.events.schedule(
            machine.clock.now + delay,
            lambda: machine.llc.flush(target),
            label="marker",
        )
        frames = machine.nic.stats.frames
        epoch = machine.llc.mapping_epoch
        if self.grouped:
            grouped()
        else:
            reference()
        self.frames_inside += machine.nic.stats.frames > frames
        self.rekeys_inside += machine.llc.mapping_epoch - epoch

    def state(self) -> dict:
        machine = self.machine
        llc = machine.llc
        engine = llc.engine
        state = {
            "clock": machine.clock.now,
            "tags": engine.tags.tobytes(),
            "flags": engine.flags.tobytes(),
            "stamps": engine.stamps.tobytes(),
            "tick": engine._tick,
            "dir": dict(engine._dir),
            "llc_stats": asdict(llc.stats),
            "traffic": (llc.traffic.reads, llc.traffic.writes),
            "mapping": (
                asdict(llc.mapping.stats), llc.mapping_epoch, llc._access_count
            ),
            "nic": asdict(machine.nic.stats),
            "driver": asdict(machine.driver.stats),
            "ring_head": machine.ring.head,
            "fired": list(self.fired),
            "pending": sorted(
                (e.time, e.seq, e.label.split("#")[0])
                for e in machine.events._heap
                if not e.cancelled
            ),
            "metrics": machine.telemetry.metrics.snapshot(),
            "versions": [es.version for es in self.sets()],
        }
        if machine.faults is not None:
            state["faults"] = asdict(machine.faults.stats)
        partition = llc.partition
        if partition is not None:
            state["partition"] = (
                asdict(partition.stats),
                dict(partition._quota),
                partition._default_quota,
                dict(partition._presence),
                dict(partition._io_since),
                partition._period_start,
            )
        return state


def _drive(rig: _Rig, idle: int, rounds: int = 3, seed: int = 0) -> list:
    """Every prime site per round, after up to ``idle`` cycles of waiting
    and between probes that flip sets; returns everything the spy
    observed."""
    rng = np.random.default_rng(seed)
    machine, chaser, receiver = rig.machine, rig.chaser, rig.receiver
    seen = []
    reference_covert = mock.patch.object(
        covert, "prime_sets", lambda _process, _sets: _covert_prime_loop(receiver)
    )

    def delay() -> int:
        return int(rng.integers(1, 6_000))

    for _ in range(rounds):
        machine.idle(int(rng.integers(0, idle)))
        monitor = chaser.buffers[int(rng.integers(len(chaser.buffers)))]
        seen.append((monitor.clock_active(), monitor.read_size()))
        rig.prime(monitor.sets(), monitor.prime,
                  lambda m=monitor: _buffer_prime_loop(m), delay())
        ring_sets = [es for m in chaser.buffers for es in m.sets()]
        rig.prime(ring_sets, chaser.prime_all,
                  lambda: _ring_prime_loop(chaser), delay())
        probe = rig.probe_monitor
        rig.prime(probe.sets, probe.prime,
                  lambda: _probe_monitor_prime_loop(probe), delay())
        seen.append(probe.probe_once())

        def listen():
            decoded = receiver.listen(2, wait_cycles=3_000, max_samples=6)
            seen.append([(d.time, d.stream, d.symbol) for d in decoded])

        def relock(payload):
            n = len(receiver.streams)
            windows = (np.ones(n, np.int64), np.ones(n, bool), np.ones(n, bool))
            event = RecoveryEvent(machine.clock.now, "heal", "test", payload)
            receiver._relock(event, *windows)
            seen.append([w.tolist() for w in windows])

        streams, heal = receiver.streams, rig.heal_streams
        heal_sets = [es for s in heal for es in s.sets()]
        with nullcontext() if rig.grouped else reference_covert:
            rig.prime([es for s in streams for es in s.sets()],
                      listen, listen, delay())
            rig.prime(heal_sets, lambda: relock(heal), lambda: relock(heal),
                      delay())
            # A relock without a payload keeps the streams and re-primes.
            rig.prime(heal_sets, lambda: relock(None), lambda: relock(None),
                      delay())
        rig.heal_streams = streams
    return seen


def _run_both(backend: str = "modulo", ddio: bool = True, faults: str = "off",
              partition: bool = False, trace: bool = False,
              idle: int = 40_000) -> _Rig:
    kwargs = dict(backend=backend, ddio=ddio, faults=faults,
                  partition=partition, trace=trace)
    grouped = _Rig(grouped=True, **kwargs)
    loop = _Rig(grouped=False, **kwargs)
    assert _drive(grouped, idle) == _drive(loop, idle)
    a, b = grouped.state(), loop.state()
    for key in a:
        assert a[key] == b[key], f"{key} diverged"
    assert a.keys() == b.keys()
    # Frames landed inside primes, and the ring's buffers share sets, so
    # a ring prime traverses a shared set once per buffer.
    assert grouped.frames_inside > 5
    ring = [es for m in grouped.chaser.buffers for es in m.sets()]
    assert len({id(es) for es in ring}) < len(ring)
    return grouped


# ----------------------------------------------------------------------
# Grouped primes == the per-set loops
# ----------------------------------------------------------------------
BACKENDS = ("modulo", "keyed:epoch=700", "skewed:partitions=2")


class TestGroupedPrimeMatchesTheLoop:
    @pytest.mark.parametrize("ddio", [True, False], ids=["ddio", "no-ddio"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends(self, backend, ddio):
        rig = _run_both(backend=backend, ddio=ddio)
        if backend.startswith("keyed"):
            assert rig.rekeys_inside > 5

    def test_partition_installed(self):
        rig = _run_both(partition=True)
        assert rig.machine.llc.partition.stats.adaptations > 0

    @pytest.mark.parametrize("backend", ["modulo", "keyed:epoch=700"])
    def test_light_faults(self, backend):
        # The co-runner wakes about every 1.6 M cycles: wait long enough
        # for its accesses to land between the primes.
        rig = _run_both(faults="light", backend=backend, idle=2_000_000)
        assert rig.machine.faults.stats.corunner_accesses > 0

    def test_traced_probe_monitor(self):
        """``ProbeMonitor.prime`` primes inside its tracer span."""
        _run_both(trace=True)
