"""Property-based invariants of the packed :class:`CacheEngine`.

The engine is the storage layer every cache path rides after the refactor;
these tests pin the invariants the façade relies on:

* LRU order (min-stamp) tracks an OrderedDict model exactly;
* ``size``/``io_count``/``cpu_count`` bookkeeping matches the arrays;
* the DDIO way cap holds under arbitrary DMA streams;
* dirty evictions are counted as writebacks exactly once;
* the batched kernels (``lookup_many``/``touch_many``) are equivalent to
  their scalar counterparts, including duplicate-line batches;
* the directory maps each resident line to the slot that holds it;
* every scalar fill and eviction picks the way, and leaves the rows,
  that the earlier numpy victim formulas (kept below as references) did.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cacheset import LINE_DIRTY, LINE_IO
from repro.cache.engine import CacheEngine
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import ModuloSliceHash
from repro.core.config import CacheGeometry, DDIOConfig

# (op, line, io) triples: 0=touch, 1=insert, 2=evict_lru, 3=evict_lru_of,
# 4=invalidate, 5=mark_io.
engine_ops = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 30), st.booleans()),
    max_size=250,
)


class ModelSet:
    """OrderedDict reference for one set (LRU first, like legacy CacheSet)."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.lines: OrderedDict[int, int] = OrderedDict()

    def apply(self, op: int, line: int, io: bool):
        if op == 0:
            if line not in self.lines:
                return False
            self.lines.move_to_end(line)
            return True
        if op == 1:
            if line in self.lines:
                return "skip"
            evicted = None
            if len(self.lines) >= self.ways:
                victim, flags = next(iter(self.lines.items()))
                del self.lines[victim]
                evicted = (victim, flags)
            self.lines[line] = LINE_IO if io else 0
            return evicted
        if op == 2:
            if not self.lines:
                return "skip"
            victim, flags = next(iter(self.lines.items()))
            del self.lines[victim]
            return (victim, flags)
        if op == 3:
            for victim, flags in self.lines.items():
                if bool(flags & LINE_IO) == io:
                    del self.lines[victim]
                    return (victim, flags)
            return None
        if op == 4:
            return self.lines.pop(line, None)
        if op == 5:
            if line not in self.lines:
                return "skip"
            self.lines[line] |= LINE_IO | LINE_DIRTY
            self.lines.move_to_end(line)
            return None
        raise AssertionError(op)


class TestEngineLRUModel:
    @given(engine_ops, st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_lru_order_matches_ordereddict_model(self, ops, ways):
        engine = CacheEngine(n_sets=3, ways=ways)
        flat = 1  # middle set; neighbours must stay untouched
        model = ModelSet(ways)
        for op, line, io in ops:
            expected = model.apply(op, line, io)
            if expected == "skip":
                continue
            if op == 0:
                assert engine.touch(line) == expected
            elif op == 1:
                evicted = engine.insert(flat, line, LINE_IO if io else 0)
                assert evicted == expected
            elif op == 2:
                if expected is None:
                    continue
                assert engine.evict_lru(flat) == expected
            elif op == 3:
                assert engine.evict_lru_of(flat, io=io) == expected
            elif op == 4:
                flags = engine.invalidate(line)
                assert flags == (None if expected is None else expected)
            elif op == 5:
                engine.mark_io(line)
            # The packed view must agree with the model in LRU order.
            assert engine.lines_in_lru_order(flat) == list(model.lines.items())
            assert engine.size(flat) == len(model.lines)
        # Neighbouring sets were never touched.
        for other in (0, 2):
            assert engine.size(other) == 0
            assert engine.lines_in_lru_order(other) == []

    @given(engine_ops, st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_counters_match_flag_arrays(self, ops, ways):
        engine = CacheEngine(n_sets=2, ways=ways)
        flat = 0
        model = ModelSet(ways)
        for op, line, io in ops:
            if model.apply(op, line, io) == "skip":
                continue
            if op == 0:
                engine.touch(line)
            elif op == 1:
                engine.insert(flat, line, LINE_IO if io else 0)
            elif op == 2:
                if engine.size(flat):
                    engine.evict_lru(flat)
            elif op == 3:
                engine.evict_lru_of(flat, io=io)
            elif op == 4:
                engine.invalidate(line)
            elif op == 5:
                engine.mark_io(line)
            _assert_directory(engine)
            row = slice(flat * ways, (flat + 1) * ways)
            row_tags = engine.tags[row]
            row_flags = engine.flags[row]
            resident = row_tags != -1
            assert engine.size(flat) == int(resident.sum())
            assert engine.io_count(flat) == int(
                ((row_flags & LINE_IO) != 0)[resident].sum()
            )
            assert engine.cpu_count(flat) == engine.size(flat) - engine.io_count(flat)
            assert 0 <= engine.size(flat) <= ways


SMALL_GEOMETRY = CacheGeometry(n_slices=2, sets_per_slice=16, ways=4)

io_streams = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 300)), max_size=300
)


class TestFacadeInvariants:
    @given(io_streams)
    @settings(max_examples=60, deadline=None)
    def test_ddio_cap_holds_under_any_stream(self, ops):
        """I/O occupancy stays at or under write_allocate_ways.

        CPU and DMA streams use disjoint lines: DMA that *hits* a
        CPU-cached line converts it in place (``mark_io``), which
        deliberately bypasses the allocation cap — in both the legacy
        model and the engine — so the cap invariant only binds fills.
        """
        llc = SlicedLLC(
            geometry=SMALL_GEOMETRY,
            ddio=DDIOConfig(enabled=True, write_allocate_ways=2),
            slice_hash=ModuloSliceHash(2),
        )
        for op, line in ops:
            # Offset DMA lines into their own range, same set coverage.
            paddr = (line + 4096) * 64 if op == 2 else line * 64
            if op == 2:
                llc.io_write(paddr)
            else:
                llc.cpu_access(paddr, write=(op == 1))
            flat = llc.flat_set_of(paddr)
            assert llc.engine.io_count(flat) <= 2

    @given(io_streams)
    @settings(max_examples=60, deadline=None)
    def test_dirty_writeback_accounting(self, ops):
        """Every line that ever leaves the LLC dirty is one writeback."""
        llc = SlicedLLC(geometry=SMALL_GEOMETRY, slice_hash=ModuloSliceHash(2))
        expected_writebacks = 0
        dirty = set()

        for op, line in ops:
            paddr = line * 64
            line_addr = paddr >> llc._offset_bits
            flat = llc.flat_set_of(paddr)
            before = {ln for ln, _f in llc.engine.lines_in_lru_order(flat)}
            if op == 2:
                llc.io_write(paddr)
                dirty.add(line_addr)  # DDIO fills/hits are always dirty
            else:
                llc.cpu_access(paddr, write=(op == 1))
                if op == 1:
                    dirty.add(line_addr)
                elif line_addr not in before:
                    dirty.discard(line_addr)  # clean fill
            after = {ln for ln, _f in llc.engine.lines_in_lru_order(flat)}
            for gone in before - after:
                if gone in dirty:
                    expected_writebacks += 1
                    dirty.discard(gone)
        assert llc.stats.writebacks == expected_writebacks

    @given(st.lists(st.integers(0, 400), min_size=1, max_size=200), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batched_kernels_match_scalar(self, lines, dirty):
        """lookup_many/touch_many agree with per-line touch on hits."""
        llc = SlicedLLC(geometry=SMALL_GEOMETRY, slice_hash=ModuloSliceHash(2))
        other = SlicedLLC(geometry=SMALL_GEOMETRY, slice_hash=ModuloSliceHash(2))
        paddrs = np.asarray([line * 64 for line in lines], dtype=np.int64)
        for llc_ in (llc, other):
            for p in paddrs:  # warm both identically
                llc_.cpu_access(int(p))
        flats, lps = llc.decompose_many(paddrs)
        slots = llc.engine.lookup_many(lps)
        for i, p in enumerate(paddrs):
            assert (slots[i] >= 0) == llc.is_resident(int(p))
            if slots[i] >= 0:
                assert llc.engine.tags[slots[i]] == lps[i]
                assert slots[i] // llc.engine.ways == flats[i]
        # touch_many vs sequential touches: identical final LRU state.
        resident = np.flatnonzero(slots >= 0)
        llc.engine.touch_many(slots[resident], set_dirty=dirty)
        for i in resident:
            other.engine.touch(int(lps[i]), set_dirty=dirty)
        for flat in np.unique(flats):
            assert llc.engine.lines_in_lru_order(int(flat)) == (
                other.engine.lines_in_lru_order(int(flat))
            )


# ----------------------------------------------------------------------
# Way placement: the scalar fills and evictions against the numpy victim
# formulas they replaced, applied op for op to a twin engine.
# ----------------------------------------------------------------------
_MAX = np.iinfo(np.int64).max


def _ref_place(engine, flat, way, line, flags):
    idx = flat * engine.ways + way
    assert engine.tags[idx] == -1
    engine.tags[idx] = line
    engine.flags[idx] = flags
    engine._tick += 1
    engine.stamps[idx] = engine._tick
    engine._dir[line] = idx
    engine._size[flat] += 1
    if flags & LINE_IO:
        engine._n_io[flat] += 1


def ref_evict_lru(engine, flat):
    base = flat * engine.ways
    stamps = engine.stamps[base : base + engine.ways]
    if engine._size[flat] == engine.ways:
        way = int(np.argmin(stamps))
    else:
        occupied = engine.tags[base : base + engine.ways] != -1
        way = int(np.where(occupied, stamps, _MAX).argmin())
    return engine._drop(base + way)


def ref_insert(engine, flat, line, flags):
    evicted = None
    if engine._size[flat] >= engine.ways:
        evicted = ref_evict_lru(engine, flat)
    base = flat * engine.ways
    way = int(np.argmin(engine.tags[base : base + engine.ways]))
    _ref_place(engine, flat, way, line, flags)
    return evicted


def ref_evict_lru_in(engine, flat, lo, hi):
    base = flat * engine.ways
    occupied = engine.tags[base + lo : base + hi] != -1
    if not occupied.any():
        raise LookupError("empty way range")
    stamps = np.where(occupied, engine.stamps[base + lo : base + hi], _MAX)
    return engine._drop(base + lo + int(stamps.argmin()))


def ref_insert_in(engine, flat, line, flags, lo, hi):
    base = flat * engine.ways
    evicted = None
    if (engine.tags[base + lo : base + hi] != -1).all():
        evicted = ref_evict_lru_in(engine, flat, lo, hi)
    way = lo + int(np.argmin(engine.tags[base + lo : base + hi]))
    _ref_place(engine, flat, way, line, flags)
    return evicted


def ref_evict_lru_of(engine, flat, io):
    count = engine._n_io[flat] if io else engine._size[flat] - engine._n_io[flat]
    if not count:
        return None
    base = flat * engine.ways
    row = engine.tags[base : base + engine.ways]
    flag_row = engine.flags[base : base + engine.ways]
    match = (row != -1) & (((flag_row & LINE_IO) != 0) == io)
    stamps = np.where(match, engine.stamps[base : base + engine.ways], _MAX)
    return engine._drop(base + int(stamps.argmin()))


def _assert_directory(engine):
    """Every directory entry is a slot that holds its line, and every
    occupied way has one."""
    for line, slot in engine._dir.items():
        assert engine.tags[slot] == line
    assert len(engine._dir) == int((engine.tags != -1).sum())


def _assert_same(engine, ref):
    assert np.array_equal(engine.tags, ref.tags)
    assert np.array_equal(engine.flags, ref.flags)
    assert np.array_equal(engine.stamps, ref.stamps)
    assert engine._dir == ref._dir
    assert engine._size == ref._size
    assert engine._n_io == ref._n_io
    assert engine._tick == ref._tick


# (op, line, io, a, b): 0=insert, 1=insert_in, 2=evict_lru,
# 3=evict_lru_of, 4=invalidate (punches holes), 5=touch; ``a`` and ``b``
# pick the way range ``[lo, hi)``.  A line's set is a function of the
# line, as under any index mapping.
placement_ops = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 40),
        st.booleans(),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    max_size=200,
)


class TestWayPlacement:
    @given(placement_ops, st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_scalar_paths_match_the_numpy_formulas(self, ops, ways):
        engine = CacheEngine(n_sets=3, ways=ways)
        ref = CacheEngine(n_sets=3, ways=ways)
        for op, line, io, a, b in ops:
            flat = line % 3
            lo = a % ways
            hi = lo + 1 + b % (ways - lo)
            flags = LINE_IO | LINE_DIRTY if io else 0
            if op in (0, 1) and engine.contains(line):
                op = 5  # the fills' contract: the line is not resident
            if op == 0:
                got = engine.insert(flat, line, flags)
                want = ref_insert(ref, flat, line, flags)
            elif op == 1:
                got = engine.insert_in(flat, line, flags, lo, hi)
                want = ref_insert_in(ref, flat, line, flags, lo, hi)
            elif op == 2:
                if not engine.size(flat):
                    continue
                got = engine.evict_lru(flat)
                want = ref_evict_lru(ref, flat)
            elif op == 3:
                got = engine.evict_lru_of(flat, io)
                want = ref_evict_lru_of(ref, flat, io)
            elif op == 4:
                got = engine.invalidate(line)
                want = ref.invalidate(line)
            else:
                got = engine.touch(line)
                want = ref.touch(line)
            assert got == want
            if op in (0, 1):
                assert engine._dir[line] == ref._dir[line]
            _assert_same(engine, ref)
            _assert_directory(engine)
            # The helper's occupancy test: only empty ways hold stamp 0.
            assert np.array_equal(engine.stamps == 0, engine.tags == -1)
            assert not engine.flags[engine.tags == -1].any()

    def test_fill_after_evict_lru_of_takes_the_first_free_way(self):
        """An origin eviction that frees a later way than the set's first
        free one leaves the fill in that first free way (the DDIO cap's
        evict-then-insert in ``SlicedLLC.io_write`` relies on this)."""
        engine = CacheEngine(n_sets=1, ways=4)
        ref = CacheEngine(n_sets=1, ways=4)
        lines = ((10, 0), (11, LINE_IO | LINE_DIRTY), (12, 0), (13, LINE_IO))
        for line, flags in lines:
            engine.insert(0, line, flags)
            ref_insert(ref, 0, line, flags)
        engine.invalidate(10)  # way 0 is free
        ref.invalidate(10)
        assert engine.evict_lru_of(0, io=True) == (11, LINE_IO | LINE_DIRTY)
        assert ref_evict_lru_of(ref, 0, io=True) == (11, LINE_IO | LINE_DIRTY)
        assert engine.insert(0, 14, 0) is ref_insert(ref, 0, 14, 0) is None
        assert engine._dir[14] == 0  # not way 1, the one just freed
        assert engine.tags[:4].tolist() == [14, -1, 12, 13]
        _assert_same(engine, ref)
