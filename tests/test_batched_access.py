"""``Machine.cpu_access_many`` against the per-access loop it batches.

``cpu_access_many`` makes one ``SlicedLLC.access_many`` call per gap
between pending events: sure hits bound each call, and only the accesses
from a set's first miss on replay through ``cpu_access``.  The function
below keeps the loop it stands for, over physical addresses, as
``Process.access`` and ``Process.timed_access`` run it: fire due events,
access, add the timer overhead and jitter when timed, advance the clock.
Mirrored machines run the same attacker code, one through
``cpu_access_many`` and one through the loop, and must leave identical
state:

* traffic that lands inside batches: 64-B broadcasts at 250 kpps, and
  1500-B frames whose driver receive and payload touch are events when
  DDIO is off;
* batches: ``SetSweep`` probes and primes over page-aligned eviction
  sets, and random address lists with repeats, untimed, timed and
  written;
* the modulo, keyed (re-keys inside batches) and skewed index backends,
  each with DDIO on and off; a machine with a partition installed, and
  one under the ``light`` fault profile;
* a partition installed over a cache that already holds I/O lines, whose
  presence clocks then start at the sweeps' misses: each replay must be
  handed its own start cycle;
* an event whose action advances the clock past another pending event.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.attack.evictionset import EvictionSet, OracleEvictionSetBuilder
from repro.attack.primeprobe import SetSweep
from repro.attack.timing import calibrate_threshold
from repro.core.config import MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.faults.profiles import get_profile
from repro.net.packet import Frame
from repro.net.traffic import ConstantStream
from repro.telemetry.context import Telemetry

BACKENDS = ("modulo", "keyed:epoch=700", "skewed:partitions=2")


# ----------------------------------------------------------------------
# The per-access loop
# ----------------------------------------------------------------------
def _reference_access_many(
    machine, paddrs, write: bool = False, timed: bool = False
) -> np.ndarray:
    """``cpu_access_many`` as one access at a time."""
    llc = machine.llc
    clock = machine.clock
    events = machine.events
    faults = machine.faults
    out = np.empty(len(paddrs), dtype=np.int64)
    for i, paddr in enumerate(np.asarray(paddrs).tolist()):
        events.run_due(clock.now)
        _hit, lat = llc.cpu_access(paddr, write=write, now=clock.now)
        if timed:
            lat += llc.timing.measure_overhead
            if faults is not None:
                lat += faults.probe_jitter()
        clock.advance(lat)
        out[i] = lat
    return out


# ----------------------------------------------------------------------
# Mirrored machines and their observable state
# ----------------------------------------------------------------------
class _Rig:
    """One machine with a spy, eviction sets over 16 of the sets the rx
    ring fills, and traffic.

    The sets come from the oracle's live table, with twice the ways per
    flat set: a sweep probes each set's first ``ways`` lines, and the
    random lists draw from all of them, so their misses evict lines the
    same list touches again.  After a re-key the sets are rebuilt for the
    new mapping, as a healer would.
    """

    def __init__(self, backend: str, ddio: bool, faults: str, partition: bool,
                 traffic: bool, reference: bool) -> None:
        base = MachineConfig().scaled_down()
        cfg = replace(
            base,
            ddio=replace(base.ddio, enabled=ddio),
            cache_backend=backend,
            faults=get_profile(faults),
        )
        machine = self.machine = Machine(
            cfg, telemetry=Telemetry.create(trace=False, metrics=True)
        )
        self.fired = [0]
        schedule = machine.events.schedule

        def counting(time, action, label="", drain=None):
            def counted():
                self.fired[0] += 1
                return action()

            return schedule(time, counted, label=label, drain=drain)

        machine.events.schedule = counting
        machine.install_nic()
        if partition:
            AdaptivePartition().install(machine)
        self.spy = machine.new_process("spy")
        self.threshold = calibrate_threshold(self.spy)
        self.builder = OracleEvictionSetBuilder(
            self.spy, self.threshold, huge_pages=4, ways=2 * cfg.cache.ways
        )
        #: Batches ``access_many`` ran only a prefix of (an event or a
        #: re-key came first), and batches a re-key landed inside.
        self.cut = 0
        self.rekeyed = 0
        if reference:
            machine.cpu_access_many = (
                lambda paddrs, write=False, timed=False:
                _reference_access_many(machine, paddrs, write, timed)
            )
        else:
            self._count_cuts()
        self._epoch = -1
        self.monitor()
        if traffic:
            for source in (
                ConstantStream(size=64, rate_pps=250_000, protocol="broadcast"),
                ConstantStream(size=1500, rate_pps=30_000, protocol="tcp"),
            ):
                source.attach(machine, machine.nic)

    def monitor(self) -> None:
        """(Re)build the eviction sets and the sweep for the live mapping."""
        llc = self.machine.llc
        if self._epoch == llc.mapping_epoch:
            return
        self._epoch = llc.mapping_epoch
        ways = llc.geometry.ways
        flats = sorted({llc.flat_set_of(b.dma_paddr) for b in self.machine.ring.buffers})
        self.groups = [
            self.builder.group_for_flat(flat, label=f"flat{flat}") for flat in flats[:16]
        ]
        self.sets = [
            EvictionSet(self.spy, g.addrs[:ways], self.threshold, label=g.label)
            for g in self.groups
        ]
        self.sweep = SetSweep(self.spy, self.sets)
        for es in self.sets:
            es.prime()

    def _count_cuts(self) -> None:
        machine = self.machine
        llc = machine.llc
        access_many = llc.access_many
        cpu_access_many = machine.cpu_access_many

        def counting_llc(paddrs, *args, **kwargs):
            hits, lats = access_many(paddrs, *args, **kwargs)
            self.cut += len(lats) < len(paddrs)
            return hits, lats

        def counting_machine(paddrs, *args, **kwargs):
            epoch = llc.mapping_epoch
            out = cpu_access_many(paddrs, *args, **kwargs)
            self.rekeyed += llc.mapping_epoch != epoch
            return out

        llc.access_many = counting_llc
        machine.cpu_access_many = counting_machine

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
            "fired": self.fired[0],
            # Frame ids count every frame built in the process, so only
            # the label's kind is compared.
            "pending": sorted(
                (e.time, e.seq, e.label.split("#")[0])
                for e in machine.events._heap
                if not e.cancelled
            ),
            "metrics": machine.telemetry.metrics.snapshot(),
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


def _drive(rig: _Rig, rounds: int, seed: int) -> list:
    """Sweeps, primes and random address lists, with idle gaps; returns
    every latency and miss count the spy saw."""
    rng = np.random.default_rng(seed)
    machine, spy = rig.machine, rig.spy
    line = machine.llc.geometry.line_size
    seen = []
    for r in range(rounds):
        rig.monitor()
        machine.idle(int(rng.integers(0, 60_000)))
        seen.append(rig.sweep.probe().tolist())
        if r % 3 == 0:
            for es in rig.sets[:4]:
                es.prime()
        # Three crowded sets: their lines, repeated, and some neighbours.
        picks = rng.choice(len(rig.groups), size=3, replace=False)
        pool = np.concatenate([rig.groups[i].addrs for i in picks])
        vaddrs = rng.choice(pool, size=int(rng.integers(20, 200)))
        vaddrs += line * (rng.random(len(vaddrs)) < 0.1)
        kind = r % 3
        seen.append(
            spy.access_many(vaddrs, write=kind == 2, timed=kind == 1).tolist()
        )
    return seen


def _run_both(rounds: int = 40, seed: int = 0, backend: str = "modulo",
              ddio: bool = True, faults: str = "off", partition: bool = False,
              traffic: bool = True) -> _Rig:
    kwargs = dict(backend=backend, ddio=ddio, faults=faults,
                  partition=partition, traffic=traffic)
    batched = _Rig(reference=False, **kwargs)
    loop = _Rig(reference=True, **kwargs)
    assert _drive(batched, rounds, seed) == _drive(loop, rounds, seed)
    assert batched.state() == loop.state()
    return batched


# ----------------------------------------------------------------------
# cpu_access_many == the per-access loop
# ----------------------------------------------------------------------
class TestBatchedAccessMatchesTheLoop:
    @pytest.mark.parametrize("ddio", [True, False], ids=["ddio", "no-ddio"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_traffic_lands_inside_batches(self, backend, ddio):
        rig = _run_both(backend=backend, ddio=ddio)
        assert rig.machine.nic.stats.frames > 100
        # Events (and re-keys) cut many batches short.
        assert rig.cut > 20
        if ddio is False:
            assert rig.machine.driver.stats.fragged > 10

    @pytest.mark.parametrize("ddio", [True, False], ids=["ddio", "no-ddio"])
    def test_keyed_rekeys_land_inside_batches(self, ddio):
        rig = _run_both(backend="keyed:epoch=700", ddio=ddio)
        assert rig.rekeyed > 5

    def test_quiet_machine(self):
        rig = _run_both(traffic=False)
        assert rig.machine.nic.stats.frames == 0

    def test_partition_installed(self):
        rig = _run_both(partition=True)
        assert rig.machine.llc.partition.stats.adaptations > 0

    @pytest.mark.parametrize("backend", ["modulo", "keyed:epoch=700"])
    def test_light_faults(self, backend):
        rig = _run_both(faults="light", backend=backend)
        assert rig.machine.faults.stats.corunner_accesses > 0

    def test_partition_installed_over_resident_io_lines(self):
        """Frames leave I/O lines in the monitored sets before the
        partition arrives, so it has no presence clock running for them.
        The sweeps' misses there start those clocks at the missing
        access's cycle, which the batch must hand each replay: the
        partition's ``_io_since``/``_presence`` and the clock must match
        the loop after the first sweep and after a run with adaptation
        ticks inside the batches."""
        runs = []
        for reference in (False, True):
            rig = _Rig(backend="modulo", ddio=True, faults="off",
                       partition=False, traffic=False, reference=reference)
            machine = rig.machine
            for _ in range(machine.ring.config.n_descriptors):
                machine.nic.deliver(Frame(size=1500, protocol="tcp"))
            AdaptivePartition().install(machine)
            partition = machine.llc.partition
            first = rig.sweep.probe().tolist()
            started = dict(partition._io_since)
            states = [rig.state()]
            seen = _drive(rig, rounds=12, seed=5)
            states.append(rig.state())
            runs.append((first, started, seen, states))
        assert runs[0] == runs[1]
        first, started, _seen, _states = runs[0]
        # The first sweep missed in several sets and started their
        # presence clocks at different cycles.
        assert sum(first) > 0 and len(set(started.values())) > 1
        assert partition.stats.adaptations > 0

    def test_event_moving_the_clock_past_another(self):
        """The first event's action jumps the clock past the second's
        time.  The loop still runs the access after that ``run_due`` and
        fires the second event before the next one; its flush of the
        sweep's last line shows as a miss."""
        runs = []
        for reference in (False, True):
            rig = _Rig(backend="modulo", ddio=True, faults="off",
                       partition=False, traffic=False, reference=reference)
            machine = rig.machine
            clock = machine.clock
            start = clock.now
            target = int(rig.sweep._arrays()[-1])
            fired_at = []
            machine.events.schedule(start + 900, lambda c=clock: c.advance(5_000))
            machine.events.schedule(
                start + 2_000,
                lambda c=clock, m=machine, t=target, f=fired_at: (
                    f.append(c.now), m.llc.flush(t)
                ),
            )
            counts = rig.sweep.probe().tolist()
            runs.append((start, counts, fired_at, rig.state()))
        assert runs[0] == runs[1]
        start, counts, fired_at, _state = runs[0]
        assert fired_at[0] > start + 900 + 5_000
        assert sum(counts) == 1
