"""Victim memory runs against the per-access loop they replaced.

``MemAgent`` steps a run of consecutive lines through L1 and LLC in one
loop per page, firing due events only where a pending event falls
(``MemAgent._run`` → ``CacheHierarchy.access_run``).  The functions below
keep the loop it replaced: fire due events, translate, access L1 then LLC,
advance the clock — once per line.  Both run on mirrored machines and must
leave identical state:

* Fig. 16's five schemes through ``LoadGenerator`` at 140 krps, with DDIO
  on and off (off: the driver's rx interrupt is an event that falls inside
  the file run);
* a keyed index whose short epoch re-keys inside file runs;
* direct ``MemAgent`` runs: unaligned across a page onto a non-adjacent
  frame, into an unmapped page, of zero lines, across a pending event,
  and past an event whose action moves the clock.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

from repro.cache.cacheset import LINE_DIRTY, CacheSet
from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.defense.randomization import FullRandomizer, PartialRandomizer
from repro.net.packet import Frame
from repro.perf.agent import MemAgent
from repro.perf.workloads import NginxServer
from repro.perf.wrk import LoadGenerator

SCHEMES = ("baseline", "full-random", "partial-1000", "partial-10000", "adaptive")
UNPARTITIONED = SCHEMES[:-1]


# ----------------------------------------------------------------------
# The per-access loop the runs replaced
# ----------------------------------------------------------------------
def _reference_hierarchy_access(hierarchy, paddr: int, write: bool, now: int) -> int:
    """``CacheHierarchy.access`` as it was: L1, then LLC, fill, writeback."""
    l1 = hierarchy.l1
    if l1.access(paddr, write):
        return hierarchy.timing.l1_hit_latency
    llc = hierarchy.llc
    _hit, llc_latency = llc.cpu_access(paddr, write=write, now=now)
    evicted = l1.fill(paddr, write)
    if evicted is not None:
        line_addr, flags = evicted
        if flags & LINE_DIRTY:
            llc.engine.touch(line_addr, set_dirty=True)
    return hierarchy.timing.l1_hit_latency + llc_latency


def _reference_access(agent, addr: int, write: bool = False, kernel: bool = False) -> int:
    """``MemAgent._access`` as it was: due events, translate, access, advance."""
    machine = agent.machine
    machine.events.run_due(machine.clock.now)
    paddr = addr if kernel else agent.process.addrspace.translate(addr)
    latency = _reference_hierarchy_access(
        agent.hierarchy, paddr, write, machine.clock.now
    )
    machine.clock.advance(latency)
    agent.cycles_spent += latency
    return latency


def _reference_handle_request(server) -> int:
    """``NginxServer.handle_request`` as it was: one agent call per line."""
    machine = server.machine
    agent = server.agent
    line = server._line
    start = machine.clock.now
    frame = Frame(size=256, protocol="tcp")
    machine.nic.deliver(frame)
    ring = machine.ring
    rx_buffer = ring.buffers[(ring.head - 1) % len(ring.buffers)]
    for i in range(frame.n_blocks(line)):
        _reference_access(agent, rx_buffer.dma_paddr + i * line, kernel=True)
    if server.randomizer is not None:
        pending = server.randomizer.drain_pending()
        if pending:
            agent.compute(pending)
    for i in range(4):
        _reference_access(
            agent,
            server._state
            + ((server.requests_served * 7 + i) % server._state_lines) * line,
        )
    file_base = server._files[server._pick_file()]
    for i in range(server.file_lines):
        _reference_access(agent, file_base + i * line)
    for i in range(8):
        _reference_access(agent, server._resp + i * line, write=True)
    agent.compute(400)
    server.requests_served += 1
    return machine.clock.now - start


# ----------------------------------------------------------------------
# Mirrored machines and their observable state
# ----------------------------------------------------------------------
def _count_fired(machine) -> list[int]:
    """Count every event action that runs (wraps ``schedule`` per instance)."""
    fired = [0]
    schedule = machine.events.schedule

    def counting(time, action, label="", drain=None):
        def counted():
            fired[0] += 1
            return action()

        return schedule(time, counted, label=label, drain=drain)

    machine.events.schedule = counting
    return fired


def _count_cut_runs(hierarchy) -> list[int]:
    """Count ``access_run`` calls a pending event cut short."""
    cut = [0]
    access_run = hierarchy.access_run

    def counting(paddr, n_lines, write, now, until):
        done, after = access_run(paddr, n_lines, write, now, until)
        cut[0] += done < n_lines
        return done, after

    hierarchy.access_run = counting
    return cut


def _server(scheme: str, ddio: bool = True, backend: str = "modulo"):
    cfg = replace(
        MachineConfig().scaled_down(),
        ddio=DDIOConfig(enabled=ddio),
        cache_backend=backend,
    )
    machine = Machine(cfg)
    fired = _count_fired(machine)
    machine.install_nic()
    randomizer = None
    if scheme == "adaptive":
        AdaptivePartition().install(machine)
    elif scheme == "full-random":
        randomizer = FullRandomizer()
    elif scheme.startswith("partial-"):
        randomizer = PartialRandomizer(int(scheme.split("-")[1]))
    server = NginxServer(machine, rng=random.Random(f"runs:{scheme}"))
    if randomizer is not None:
        machine.driver.randomizer = randomizer
        server.randomizer = randomizer
    return server, fired


def _state(machine, agent, fired) -> dict:
    llc = machine.llc
    engine = llc.engine
    l1 = agent.hierarchy.l1
    state = {
        "clock": machine.clock.now,
        "cycles_spent": agent.cycles_spent,
        "l1_stats": asdict(l1.stats),
        "l1_sets": [list(s.lines.items()) for s in l1.sets],
        "llc_stats": asdict(llc.stats),
        "tags": engine.tags.tobytes(),
        "flags": engine.flags.tobytes(),
        "stamps": engine.stamps.tobytes(),
        "tick": engine._tick,
        "traffic": (llc.traffic.reads, llc.traffic.writes),
        "mapping": (asdict(llc.mapping.stats), llc.mapping_epoch),
        "fired": fired[0],
        "pending": sorted(
            (e.time, e.seq, e.label) for e in machine.events._heap if not e.cancelled
        ),
    }
    if machine.nic is not None:
        state["nic"] = asdict(machine.nic.stats)
        state["driver"] = asdict(machine.driver.stats)
        state["ring"] = (machine.ring.head, machine.ring.order_fingerprint())
        randomizer = machine.driver.randomizer
        if randomizer is not None:
            state["randomizer"] = (
                randomizer.packets,
                getattr(randomizer, "shuffles", None),
                randomizer.pending_cycles,
            )
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


def _serve_both(scheme: str, n_requests: int, **machine_kw):
    """Serve the same open-loop load with runs and with the reference loop."""
    runs, runs_fired = _server(scheme, **machine_kw)
    cut = _count_cut_runs(runs.agent.hierarchy)
    ref, ref_fired = _server(scheme, **machine_kw)
    ref.handle_request = lambda: _reference_handle_request(ref)
    reports = [
        LoadGenerator(s.machine, s, rate_rps=140_000.0, n_requests=n_requests).run()
        for s in (runs, ref)
    ]
    assert reports[0].latencies_cycles == reports[1].latencies_cycles
    assert reports[0].duration_cycles == reports[1].duration_cycles
    assert _state(runs.machine, runs.agent, runs_fired) == _state(
        ref.machine, ref.agent, ref_fired
    )
    return runs, cut[0]


# ----------------------------------------------------------------------
# Nginx requests: runs == per-access loop
# ----------------------------------------------------------------------
class TestNginxRunsMatchPerAccessLoop:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fig16_schemes(self, scheme):
        server, _cut = _serve_both(scheme, 60)
        assert server.requests_served == 60

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_no_ddio_interrupts_land_inside_runs(self, scheme):
        server, cut = _serve_both(scheme, 40, ddio=False)
        # An rx interrupt fires io_to_driver_latency after its frame
        # lands, so most fire inside that request's file run.
        assert cut >= 20
        assert server.machine.driver.stats.frames == 40

    @pytest.mark.parametrize("scheme", UNPARTITIONED)
    def test_keyed_rekeys_inside_file_runs(self, scheme):
        server, _cut = _serve_both(scheme, 30, backend="keyed:epoch=97")
        # Far more re-keys than requests: most land mid-run.
        assert server.machine.llc.mapping.stats.epochs > 30 * 2


# ----------------------------------------------------------------------
# Direct MemAgent runs
# ----------------------------------------------------------------------
def _agents(n_pages: int = 2):
    """Two mirrored machines, each with an agent over ``n_pages`` pages."""
    pairs = []
    for _ in range(2):
        machine = Machine(MachineConfig().scaled_down())
        fired = _count_fired(machine)
        agent = MemAgent(machine, "w")
        pairs.append((machine, agent, fired, agent.mmap(n_pages)))
    return pairs


class TestMemAgentRuns:
    def test_unaligned_run_crosses_onto_non_adjacent_frame(self):
        (m1, a1, f1, base), (m2, a2, f2, base2) = _agents()
        assert base == base2
        page = m1.physmem.page_size
        for agent in (a1, a2):
            space = agent.process.addrspace
            # Pin the second page two frames past the first, so a run that
            # kept stepping physical lines would read the wrong frame.
            first = space.translate(base) // page
            space.map_fixed(base + page, first + 2)
            assert space.translate(base + page) != space.translate(base) + page
        start = base + page - 3 * 64 - 17
        spent = a1.read_run(start, 8)
        expected = sum(_reference_access(a2, start + i * 64) for i in range(8))
        assert spent == expected
        assert _state(m1, a1, f1) == _state(m2, a2, f2)
        spent = a1.write_run(start + 64, 6)
        expected = sum(
            _reference_access(a2, start + 64 + i * 64, write=True) for i in range(6)
        )
        assert spent == expected
        assert _state(m1, a1, f1) == _state(m2, a2, f2)

    def test_run_into_unmapped_page_raises_after_same_accesses(self):
        (m1, a1, f1, base), (m2, a2, f2, _) = _agents(n_pages=1)
        page = m1.physmem.page_size
        start = base + page - 2 * 64
        with pytest.raises(ValueError, match="unmapped"):
            a1.read_run(start, 5)
        with pytest.raises(ValueError, match="unmapped"):
            for i in range(5):
                _reference_access(a2, start + i * 64)
        assert a1.hierarchy.l1.stats.cpu_misses == 2
        assert _state(m1, a1, f1) == _state(m2, a2, f2)

    def test_zero_lines_is_a_noop(self):
        (machine, agent, fired, base), _ = _agents()
        machine.events.schedule(machine.clock.now, lambda: None)
        before = _state(machine, agent, fired)
        assert agent.read_run(base, 0) == 0
        assert agent.write_run(base, 0) == 0
        assert agent.read_kernel_run(agent.process.addrspace.translate(base), 0) == 0
        assert _state(machine, agent, fired) == before

    def test_event_fires_before_first_access_at_or_after_its_time(self):
        (m1, a1, f1, base), (m2, a2, f2, _) = _agents(n_pages=4)
        seen = []
        due = m1.clock.now + 3_000
        for machine, agent in ((m1, a1), (m2, a2)):
            stats = agent.hierarchy.l1.stats

            def record(machine=machine, stats=stats):
                seen.append((machine.clock.now, stats.cpu_hits + stats.cpu_misses))

            machine.events.schedule(due, record)
        a1.read_run(base, 64)
        for i in range(64):
            _reference_access(a2, base + i * 64)
        assert seen[0] == seen[1]
        fired_at, accesses_before = seen[0]
        # Mid-run, at the first access that starts at or after ``due``.
        assert 0 < accesses_before < 64
        assert fired_at >= due
        assert fired_at - m1.llc.timing.llc_miss_latency - m1.llc.timing.l1_hit_latency < due
        assert _state(m1, a1, f1) == _state(m2, a2, f2)

    def test_event_that_moves_the_clock_is_followed_by_one_access(self):
        """An action that advances time past the next event: the access it
        preceded still runs first, and the next event fires after it."""
        (m1, a1, f1, base), (m2, a2, f2, _) = _agents(n_pages=4)
        seen = []
        first = m1.clock.now + 3_000
        for machine, agent in ((m1, a1), (m2, a2)):
            stats = agent.hierarchy.l1.stats

            def stall(machine=machine):
                machine.clock.advance(2_000)

            def record(machine=machine, stats=stats):
                seen.append((machine.clock.now, stats.cpu_hits + stats.cpu_misses))

            machine.events.schedule(first, stall)
            machine.events.schedule(first + 500, record)
        a1.read_run(base, 64)
        for i in range(64):
            _reference_access(a2, base + i * 64)
        assert seen[0] == seen[1]
        assert _state(m1, a1, f1) == _state(m2, a2, f2)

    def test_dirty_l1_victims_match_per_line_accesses(self, monkeypatch):
        """A write run over more lines than the L1 holds in their sets,
        then a read run over them: each L1 fill past the first eight
        pages evicts a dirty line, whose writeback touches its LLC copy
        between two accesses in stamp order."""
        (m1, a1, f1, base), (m2, a2, f2, _) = _agents(n_pages=12)
        ways = a1.hierarchy.l1.ways
        n_lines = 10 * m1.physmem.page_size // 64
        assert n_lines > a1.hierarchy.l1.n_sets * ways
        runs_sets = {id(cset) for cset in a1.hierarchy.l1.sets}
        dirty_victims = {True: 0, False: 0}  # keyed by "on the runs' side"
        insert = CacheSet.insert

        def counted(cset, line, flags):
            evicted = insert(cset, line, flags)
            if evicted is not None and evicted[1] & LINE_DIRTY:
                dirty_victims[id(cset) in runs_sets] += 1
            return evicted

        monkeypatch.setattr(CacheSet, "insert", counted)
        start = base + 64
        assert a1.write_run(start, n_lines) == sum(
            _reference_access(a2, start + i * 64, write=True) for i in range(n_lines)
        )
        assert _state(m1, a1, f1) == _state(m2, a2, f2)
        assert a1.read_run(base, n_lines) == sum(
            _reference_access(a2, base + i * 64) for i in range(n_lines)
        )
        assert _state(m1, a1, f1) == _state(m2, a2, f2)
        assert dirty_victims[True] == dirty_victims[False] > n_lines // 2

    def test_kernel_run_matches_per_line_reads(self):
        (m1, a1, f1, base), (m2, a2, f2, _) = _agents()
        paddr = a1.process.addrspace.translate(base)
        assert paddr == a2.process.addrspace.translate(base)
        assert a1.read_kernel_run(paddr + 5, 40) == sum(
            _reference_access(a2, paddr + 5 + i * 64, kernel=True) for i in range(40)
        )
        assert _state(m1, a1, f1) == _state(m2, a2, f2)
