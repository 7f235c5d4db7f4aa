"""Tests for the L1 cache and the inclusive two-level hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy, L1Cache
from repro.cache.llc import SlicedLLC
from repro.core.config import CacheGeometry, TimingParams


@pytest.fixture
def llc():
    return SlicedLLC(geometry=CacheGeometry(n_slices=2, sets_per_slice=64, ways=4))


@pytest.fixture
def hierarchy(llc):
    return CacheHierarchy(llc, l1=L1Cache(size_kb=4, ways=2))


class TestL1Cache:
    def test_geometry_derivation(self):
        l1 = L1Cache(size_kb=32, ways=8, line_size=64)
        assert l1.n_sets == 64

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            L1Cache(size_kb=3, ways=7)

    def test_hit_after_fill(self):
        l1 = L1Cache(size_kb=4, ways=2)
        assert not l1.access(0x1000)
        l1.fill(0x1000, write=False)
        assert l1.access(0x1000)

    def test_eviction_returns_victim(self):
        l1 = L1Cache(size_kb=4, ways=1)
        l1.fill(0x0, write=True)
        span = l1.n_sets * l1.line_size
        evicted = l1.fill(span, write=False)  # same set, 1 way
        assert evicted is not None
        line, flags = evicted
        assert line == 0


class TestHierarchy:
    def test_l1_hit_is_cheapest(self, hierarchy):
        timing = TimingParams()
        hierarchy.access(0x2000)
        hit, latency = hierarchy.access(0x2000)
        assert hit
        assert latency == timing.l1_hit_latency

    def test_l1_miss_llc_hit_latency(self, hierarchy, llc):
        timing = TimingParams()
        # Fill LLC but force the line out of L1 with same-L1-set conflicts.
        hierarchy.access(0x2000)
        span = hierarchy.l1.n_sets * 64
        hierarchy.access(0x2000 + span)
        hierarchy.access(0x2000 + 2 * span)
        hit, latency = hierarchy.access(0x2000)
        assert not hit  # L1 miss
        if llc.is_resident(0x2000):
            assert latency == timing.l1_hit_latency + timing.llc_hit_latency

    def test_inclusion_back_invalidation(self, hierarchy, llc):
        hierarchy.access(0x3000)
        assert hierarchy.l1.access(0x3000)
        llc.flush(0x3000)
        # Inclusive: the L1 copy must be gone too.
        assert not hierarchy.l1.access(0x3000)

    def test_io_invalidation_reaches_l1(self, hierarchy, llc):
        """DMA overwrite without DDIO snoops the whole hierarchy."""
        no_ddio = SlicedLLC(
            geometry=CacheGeometry(n_slices=2, sets_per_slice=64, ways=4),
        )
        from repro.core.config import DDIOConfig

        no_ddio.ddio = DDIOConfig(enabled=False)
        h = CacheHierarchy(no_ddio, l1=L1Cache(size_kb=4, ways=2))
        h.access(0x4000)
        no_ddio.io_write(0x4000)
        assert not h.l1.access(0x4000)

    def test_multiple_hierarchies_chain_hooks(self, llc):
        a = CacheHierarchy(llc, l1=L1Cache(size_kb=4, ways=2))
        b = CacheHierarchy(llc, l1=L1Cache(size_kb=4, ways=2))
        a.access(0x5000)
        b.access(0x5000)
        llc.flush(0x5000)
        assert not a.l1.access(0x5000)
        assert not b.l1.access(0x5000)

    def test_dirty_l1_writeback_marks_llc_dirty(self, llc):
        from repro.cache.cacheset import LINE_DIRTY

        h = CacheHierarchy(llc, l1=L1Cache(size_kb=4, ways=1))
        h.access(0x6000, write=True)
        span = h.l1.n_sets * 64
        h.access(0x6000 + span)  # evicts the dirty L1 line
        flags = llc.engine.flags_of(0x6000 >> 6)
        assert flags is not None and flags & LINE_DIRTY
