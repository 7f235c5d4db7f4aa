"""Unit tests for cache sets, slice hashes, and the sliced LLC with DDIO."""

import pytest

from repro.cache.cacheset import CacheSet, LINE_DIRTY, LINE_IO
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import IntelComplexHash, ModuloSliceHash
from repro.core.config import CacheGeometry, DDIOConfig


class TestCacheSet:
    def test_hit_after_insert(self):
        s = CacheSet(4)
        s.insert(100, 0)
        assert s.touch(100)

    def test_miss_when_absent(self):
        assert not CacheSet(4).touch(1)

    def test_lru_eviction_order(self):
        s = CacheSet(2)
        s.insert(1, 0)
        s.insert(2, 0)
        evicted = s.insert(3, 0)
        assert evicted == (1, 0)

    def test_touch_refreshes_lru(self):
        s = CacheSet(2)
        s.insert(1, 0)
        s.insert(2, 0)
        s.touch(1)
        evicted = s.insert(3, 0)
        assert evicted[0] == 2

    def test_io_count_tracks_origin(self):
        s = CacheSet(4)
        s.insert(1, LINE_IO | LINE_DIRTY)
        s.insert(2, 0)
        assert s.io_count == 1
        assert s.cpu_count == 1

    def test_evict_lru_of_filters_origin(self):
        s = CacheSet(4)
        s.insert(1, 0)
        s.insert(2, LINE_IO)
        s.insert(3, 0)
        line, flags = s.evict_lru_of(io=True)
        assert line == 2 and flags & LINE_IO

    def test_evict_lru_of_none_when_absent(self):
        s = CacheSet(2)
        s.insert(1, 0)
        assert s.evict_lru_of(io=True) is None

    def test_mark_io_converts_and_dirties(self):
        s = CacheSet(2)
        s.insert(5, 0)
        s.mark_io(5)
        assert s.io_count == 1
        assert s.flags_of(5) & LINE_DIRTY

    def test_mark_io_missing_raises(self):
        with pytest.raises(LookupError):
            CacheSet(2).mark_io(1)

    def test_invalidate(self):
        s = CacheSet(2)
        s.insert(7, LINE_IO)
        assert s.invalidate(7) is not None
        assert s.io_count == 0
        assert s.invalidate(7) is None

    def test_touch_sets_dirty_on_write(self):
        s = CacheSet(2)
        s.insert(9, 0)
        s.touch(9, set_dirty=True)
        assert s.flags_of(9) & LINE_DIRTY

    def test_evict_empty_raises(self):
        with pytest.raises(LookupError):
            CacheSet(2).evict_lru()


class TestSliceHash:
    def test_intel_hash_in_range(self):
        h = IntelComplexHash(8)
        for addr in range(0, 1 << 22, 4096 + 64):
            assert 0 <= h.slice_of(addr) < 8

    def test_intel_hash_roughly_uniform(self):
        h = IntelComplexHash(8)
        counts = [0] * 8
        for i in range(4096):
            counts[h.slice_of(i * 64)] += 1
        assert min(counts) > 4096 / 8 * 0.6

    def test_intel_hash_is_xor_linear(self):
        """h(a ^ b) == h(a) ^ h(b): the property real attacks exploit."""
        h = IntelComplexHash(8)
        for a, b in [(0x4000, 0x40), (0x123000, 0x7000), (1 << 21, 1 << 13)]:
            assert h.slice_of(a ^ b) == h.slice_of(a) ^ h.slice_of(b)

    def test_mask_count_validation(self):
        with pytest.raises(ValueError):
            IntelComplexHash(16, masks=(1, 2))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ModuloSliceHash(6)

    def test_modulo_hash(self):
        h = ModuloSliceHash(8)
        assert h.slice_of(0) == 0
        assert h.slice_of(64) == 1


@pytest.fixture
def llc():
    return SlicedLLC(
        geometry=CacheGeometry(n_slices=2, sets_per_slice=64, ways=4),
        ddio=DDIOConfig(enabled=True, write_allocate_ways=2),
    )


def addrs_same_set(llc, count, start=0):
    """Addresses guaranteed to map to one cache set."""
    target = llc.flat_set_of(start)
    out, addr = [], start
    while len(out) < count:
        if llc.flat_set_of(addr) == target:
            out.append(addr)
        addr += 64 * llc.geometry.sets_per_slice
    return out


class TestLLCCpuPath:
    def test_miss_then_hit(self, llc):
        hit, lat = llc.cpu_access(0x1000)
        assert not hit and lat == llc.timing.llc_miss_latency
        hit, lat = llc.cpu_access(0x1000)
        assert hit and lat == llc.timing.llc_hit_latency

    def test_fill_counts_dram_read(self, llc):
        llc.cpu_access(0x2000)
        assert llc.traffic.reads == 1

    def test_dirty_eviction_writes_back(self, llc):
        lines = addrs_same_set(llc, 5)
        llc.cpu_access(lines[0], write=True)
        for a in lines[1:]:
            llc.cpu_access(a)
        assert llc.traffic.writes == 1

    def test_conflict_eviction_is_lru(self, llc):
        lines = addrs_same_set(llc, 5)
        for a in lines[:4]:
            llc.cpu_access(a)
        llc.cpu_access(lines[0])  # refresh
        llc.cpu_access(lines[4])  # evicts lines[1]
        assert llc.is_resident(lines[0])
        assert not llc.is_resident(lines[1])

    def test_flush_invalidates(self, llc):
        llc.cpu_access(0x3000)
        llc.flush(0x3000)
        assert not llc.is_resident(0x3000)
        hit, _ = llc.cpu_access(0x3000)
        assert not hit


class TestLLCDDIOPath:
    def test_io_write_allocates_in_cache(self, llc):
        llc.io_write(0x4000)
        assert llc.is_resident(0x4000)
        assert llc.traffic.writes == 0  # no DRAM trip — the point of DDIO

    def test_io_lines_capped_per_set(self, llc):
        lines = addrs_same_set(llc, 3, start=0x8000)
        for a in lines:
            llc.io_write(a)
        flat = llc.flat_set_of(lines[0])
        _cpu, io = llc.set_occupancy(flat)
        assert io == 2  # write_allocate_ways

    def test_io_fill_evicts_cpu_line(self, llc):
        """The vulnerability: a packet displaces a CPU (spy) line."""
        lines = addrs_same_set(llc, 5, start=0x10000)
        for a in lines[:4]:
            llc.cpu_access(a)
        llc.io_write(lines[4])
        assert llc.stats.io_evicted_cpu == 1
        assert not llc.is_resident(lines[0])

    def test_io_rewrite_is_hit(self, llc):
        llc.io_write(0x5000)
        llc.io_write(0x5000)
        assert llc.stats.io_hits == 1
        assert llc.stats.io_fills == 1

    def test_io_eviction_writes_back_dirty(self, llc):
        lines = addrs_same_set(llc, 3, start=0x20000)
        for a in lines:
            llc.io_write(a)
        # Third write evicted the first I/O line, which was dirty.
        assert llc.traffic.writes == 1

    def test_no_ddio_goes_to_dram(self):
        llc = SlicedLLC(
            geometry=CacheGeometry(n_slices=2, sets_per_slice=64, ways=4),
            ddio=DDIOConfig(enabled=False),
        )
        llc.io_write(0x4000)
        assert not llc.is_resident(0x4000)
        assert llc.traffic.writes == 1

    def test_no_ddio_invalidates_cached_copy(self):
        llc = SlicedLLC(
            geometry=CacheGeometry(n_slices=2, sets_per_slice=64, ways=4),
            ddio=DDIOConfig(enabled=False),
        )
        llc.cpu_access(0x6000)
        llc.io_write(0x6000)
        assert not llc.is_resident(0x6000)


class TestAddressDecomposition:
    def test_flat_set_combines_slice_and_index(self, llc):
        paddr = 0x12340
        flat = llc.flat_set_of(paddr)
        assert flat == llc.slice_of(paddr) * 64 + llc.set_index_of(paddr)

    def test_page_aligned_addresses_have_low_index_bits_zero(self, llc):
        for page in range(0, 1 << 20, 4096):
            assert llc.set_index_of(page) % 64 == 0

    def test_slice_hash_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SlicedLLC(
                geometry=CacheGeometry(n_slices=4, sets_per_slice=64, ways=4),
                slice_hash=IntelComplexHash(8),
            )
