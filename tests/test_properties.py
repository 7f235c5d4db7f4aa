"""Property-based tests (hypothesis) on the core data structures.

These pin down the invariants everything else relies on: LRU behaviour,
DDIO occupancy caps, partition isolation, ring-order stability, and the
address decomposition the attack reasons about.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cacheset import CacheSet, LINE_DIRTY, LINE_IO
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import IntelComplexHash
from repro.core.config import CacheGeometry, DDIOConfig
from repro.defense.partitioning import AdaptivePartition, PartitionConfig

SMALL_GEOMETRY = CacheGeometry(n_slices=2, sets_per_slice=16, ways=4)

# An operation stream: (op, line) with op 0=cpu read, 1=cpu write, 2=io.
op_streams = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 200)), max_size=200
)


def run_ops(llc, ops):
    for op, line in ops:
        paddr = line * 64
        if op == 2:
            llc.io_write(paddr)
        else:
            llc.cpu_access(paddr, write=(op == 1))


class TestCacheSetProperties:
    @given(st.lists(st.integers(0, 50), max_size=120), st.integers(1, 8))
    @settings(max_examples=60)
    def test_occupancy_never_exceeds_ways(self, lines, ways):
        cset = CacheSet(ways)
        for line in lines:
            if line not in cset:
                cset.insert(line, 0)
            else:
                cset.touch(line)
        assert len(cset) <= ways

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
    @settings(max_examples=60)
    def test_io_count_matches_flags(self, lines):
        cset = CacheSet(4)
        rng = random.Random(0)
        for line in lines:
            flags = LINE_IO | LINE_DIRTY if rng.random() < 0.5 else 0
            if line not in cset:
                cset.insert(line, flags)
        actual_io = sum(1 for f in cset.lines.values() if f & LINE_IO)
        assert cset.io_count == actual_io

    @given(st.lists(st.integers(0, 10), min_size=5, max_size=50))
    @settings(max_examples=60)
    def test_most_recent_line_survives(self, lines):
        cset = CacheSet(2)
        for line in lines:
            if not cset.touch(line):
                cset.insert(line, 0)
        assert lines[-1] in cset


class TestLLCProperties:
    @given(op_streams)
    @settings(max_examples=50, deadline=None)
    def test_ddio_cap_invariant(self, ops):
        llc = SlicedLLC(geometry=SMALL_GEOMETRY, ddio=DDIOConfig(write_allocate_ways=2))
        run_ops(llc, ops)
        engine = llc.engine
        for flat in range(engine.n_sets):
            assert engine.io_count(flat) <= 2
            assert engine.size(flat) <= engine.ways

    @given(op_streams)
    @settings(max_examples=50, deadline=None)
    def test_hit_after_any_history(self, ops):
        llc = SlicedLLC(geometry=SMALL_GEOMETRY)
        run_ops(llc, ops)
        llc.cpu_access(0x9999 * 64)
        hit, _ = llc.cpu_access(0x9999 * 64)
        assert hit

    @given(op_streams)
    @settings(max_examples=50, deadline=None)
    def test_traffic_counters_monotone_and_consistent(self, ops):
        llc = SlicedLLC(geometry=SMALL_GEOMETRY)
        run_ops(llc, ops)
        assert llc.traffic.reads == llc.stats.cpu_misses
        assert llc.traffic.reads >= 0 and llc.traffic.writes >= 0

    @given(op_streams)
    @settings(max_examples=50, deadline=None)
    def test_partition_isolation_invariant(self, ops):
        """Under the defense, I/O never evicts CPU lines and quotas hold."""
        llc = SlicedLLC(geometry=SMALL_GEOMETRY)
        partition = AdaptivePartition(PartitionConfig())
        llc.partition = partition
        run_ops(llc, ops)
        assert llc.stats.io_evicted_cpu == 0
        for flat in range(llc.engine.n_sets):
            assert llc.engine.io_count(flat) <= partition.config.max_quota

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_flat_set_stable_within_line(self, paddrs):
        llc = SlicedLLC(geometry=SMALL_GEOMETRY)
        for paddr in paddrs:
            base = (paddr >> 6) << 6
            assert llc.flat_set_of(base) == llc.flat_set_of(base + 63)


class TestSliceHashProperties:
    @given(st.integers(0, (1 << 36) - 1), st.integers(0, (1 << 36) - 1))
    @settings(max_examples=100)
    def test_xor_linearity(self, a, b):
        h = IntelComplexHash(8)
        assert h.slice_of(a ^ b) == h.slice_of(a) ^ h.slice_of(b)

    @given(st.integers(0, (1 << 30) - 1))
    @settings(max_examples=100)
    def test_range(self, paddr):
        assert 0 <= IntelComplexHash(8).slice_of(paddr) < 8


class TestRingProperties:
    @given(st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_ring_order_stable_under_traffic(self, n_packets):
        """Small broadcast packets never change buffer order — the property
        the whole attack rests on."""
        from repro.core.config import MachineConfig
        from repro.core.machine import Machine
        from repro.net.packet import Frame

        machine = Machine(MachineConfig().scaled_down())
        machine.install_nic()
        before = machine.ring.order_fingerprint()
        for _ in range(n_packets):
            machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        assert machine.ring.order_fingerprint() == before

    @given(st.integers(1, 100), st.integers(2, 64))
    @settings(max_examples=25, deadline=None)
    def test_fill_sequence_is_cyclic(self, n_packets, _unused):
        from repro.core.config import MachineConfig
        from repro.core.machine import Machine
        from repro.net.packet import Frame

        machine = Machine(MachineConfig().scaled_down())
        machine.install_nic(log_receives=True)
        for _ in range(n_packets):
            machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        slots = [r.ring_slot for r in machine.driver.receive_log]
        ring = len(machine.ring.buffers)
        assert slots == [i % ring for i in range(n_packets)]


class TestLevenshteinVsBruteForce:
    @given(
        st.text(alphabet="abc", max_size=6),
        st.text(alphabet="abc", max_size=6),
    )
    @settings(max_examples=60)
    def test_matches_recursive_definition(self, a, b):
        from functools import lru_cache

        from repro.analysis.levenshtein import levenshtein

        @lru_cache(maxsize=None)
        def brute(x, y):
            if not x:
                return len(y)
            if not y:
                return len(x)
            return min(
                brute(x[1:], y) + 1,
                brute(x, y[1:]) + 1,
                brute(x[1:], y[1:]) + (x[0] != y[0]),
            )

        assert levenshtein(a, b) == brute(a, b)
