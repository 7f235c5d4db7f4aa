"""repro.cache.backends: the pluggable index-mapping seam.

Pins the contracts the LLC integration relies on:

* the keyed permutation primitive is a true permutation over the set
  space for any keys / tag (hypothesis);
* scalar ``flat_of`` and vectorised ``flats_of_many`` agree bit-for-bit
  for every backend (the memoized and batched paths interchange);
* the modulo backend reproduces the pre-backend inline formula exactly;
* epoch re-keying accounts every resident line (remapped + dropped ==
  resident before), bumps the epoch, and reseeds the memo;
* the closed-form re-key leaves exactly what the per-line reinsert loop
  it replaced leaves, evict-hook order included;
* batched ``access_many`` / ``io_write_many`` stay equivalent to scalar
  loops under keyed and skewed backends (including batches a re-key
  lands inside), and ``access_many`` leaves the loop's raw engine state,
  stamps and tick included, whole or cut at ``until``;
* ``access_many`` and ``rx_burst`` make no mapping call for a line the
  LLC's memo holds, on every backend, and no path that acts on a
  resident line decomposes it;
* under a skewed backend a line only ever occupies its partition's ways;
* spec parsing and the CLI surface (``backends list`` / ``--backend``).
"""

from __future__ import annotations

import copy
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.backends import (
    KeyedMapping,
    ModuloMapping,
    SkewedMapping,
    backend_infos,
    backend_names,
    make_mapping,
    parse_backend_spec,
)
from repro.cache.backends.base import keyed_permute_many
from repro.cache.cacheset import LINE_DIRTY
from repro.cache.hierarchy import CacheHierarchy, L1Cache
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import IntelComplexHash
from repro.core.config import CacheGeometry
from repro.cli import main

GEOMETRY = CacheGeometry(n_slices=2, sets_per_slice=32, ways=6)

ALL_SPECS = ["modulo", "keyed:epoch=0", "keyed:epoch=64", "skewed", "skewed:partitions=3"]

u64 = st.integers(0, (1 << 64) - 1)


def _mapping(spec: str, seed: int = 7):
    return make_mapping(spec, GEOMETRY, IntelComplexHash(GEOMETRY.n_slices), seed=seed)


def _llc(spec: str, seed: int = 7) -> SlicedLLC:
    return SlicedLLC(geometry=GEOMETRY, backend=spec, seed=seed)


def _paddrs(rng: np.random.Generator, n: int) -> np.ndarray:
    # Line-aligned addresses over a few MB, duplicates allowed.
    return (rng.integers(0, 1 << 16, size=n) << GEOMETRY.offset_bits).astype(
        np.int64
    )


class TestPermutationPrimitive:
    @given(
        keys=st.lists(st.tuples(u64, u64), min_size=1, max_size=4),
        set_bits=st.integers(2, 10),
        tag=u64,
    )
    @settings(max_examples=60)
    def test_keyed_permute_is_a_permutation(self, keys, set_bits, tag):
        base = np.arange(1 << set_bits, dtype=np.uint64)
        tags = np.full(len(base), tag, dtype=np.uint64)
        out = keyed_permute_many(base, tags, tuple(keys), set_bits)
        assert sorted(out.tolist()) == list(range(1 << set_bits))

    @given(tag_a=u64, tag_b=u64)
    @settings(max_examples=30)
    def test_distinct_tags_usually_permute_differently(self, tag_a, tag_b):
        # Not a strict requirement per-pair, but the tweak must feed
        # through: identical tags must give identical permutations.
        mapping = _mapping("keyed:epoch=0")
        base = np.arange(GEOMETRY.total_sets, dtype=np.uint64)
        same_a = keyed_permute_many(
            base,
            np.full(len(base), tag_a, dtype=np.uint64),
            mapping._round_keys,
            mapping.flat_bits,
        )
        again_a = keyed_permute_many(
            base,
            np.full(len(base), tag_a, dtype=np.uint64),
            mapping._round_keys,
            mapping.flat_bits,
        )
        assert (same_a == again_a).all()


class TestMappingContracts:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_scalar_matches_vector(self, spec):
        mapping = _mapping(spec)
        rng = np.random.default_rng(11)
        paddrs = _paddrs(rng, 200)
        lines = paddrs >> GEOMETRY.offset_bits
        vec = mapping.flats_of_many(paddrs, lines)
        for i in range(len(paddrs)):
            assert mapping.flat_of(int(paddrs[i]), int(lines[i])) == int(vec[i])

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_flats_in_range_and_line_stable(self, spec):
        mapping = _mapping(spec)
        rng = np.random.default_rng(13)
        paddrs = _paddrs(rng, 500)
        lines = paddrs >> GEOMETRY.offset_bits
        flats = mapping.flats_of_many(paddrs, lines)
        assert flats.dtype == np.int64
        assert (flats >= 0).all() and (flats < GEOMETRY.total_sets).all()
        # Same line -> same flat (the memo identity every path assumes).
        by_line = {}
        for line, flat in zip(lines.tolist(), flats.tolist()):
            assert by_line.setdefault(line, flat) == flat

    def test_modulo_matches_legacy_inline_formula(self):
        slice_hash = IntelComplexHash(GEOMETRY.n_slices)
        mapping = ModuloMapping(GEOMETRY, slice_hash)
        rng = np.random.default_rng(17)
        for paddr in _paddrs(rng, 300).tolist():
            line = paddr >> GEOMETRY.offset_bits
            legacy = (
                slice_hash.slice_of(paddr) * GEOMETRY.sets_per_slice
                + (line & (GEOMETRY.sets_per_slice - 1))
            )
            assert mapping.flat_of(paddr, line) == legacy

    def test_keyed_scatters_page_stride_candidates(self):
        # The property that defeats eviction-set construction: addresses
        # sharing set-index bits (page-stride candidates) must not share
        # a flat set under the keyed mapping the way they do under modulo.
        modulo = _llc("modulo")
        keyed = _llc("keyed:epoch=0")
        stride = GEOMETRY.sets_per_slice << GEOMETRY.offset_bits
        paddrs = np.arange(64, dtype=np.int64) * stride
        m_flats = {modulo.flat_set_of(int(p)) for p in paddrs}
        k_flats = {keyed.flat_set_of(int(p)) for p in paddrs}
        assert len(m_flats) <= GEOMETRY.n_slices  # all share one set index
        assert len(k_flats) > len(m_flats)  # scattered over many sets

    def test_seed_changes_keyed_mapping(self):
        a = _mapping("keyed:epoch=0", seed=1)
        b = _mapping("keyed:epoch=0", seed=2)
        rng = np.random.default_rng(19)
        paddrs = _paddrs(rng, 128)
        lines = paddrs >> GEOMETRY.offset_bits
        assert (a.flats_of_many(paddrs, lines) != b.flats_of_many(paddrs, lines)).any()


class TestEpochRekeying:
    def test_rekey_accounts_every_resident_line(self):
        llc = _llc("keyed:epoch=64")
        rng = np.random.default_rng(23)
        for paddr in _paddrs(rng, 60).tolist():
            llc.cpu_access(paddr, write=bool(paddr & 64))
        resident = int((llc.engine.tags != -1).sum())
        assert resident > 0
        epoch_before = llc.mapping_epoch
        llc._rekey(now=0)
        snap = llc.mapping.stats.snapshot()
        assert snap["epochs"] == 1
        assert snap["lines_remapped"] + snap["lines_dropped"] == resident
        assert llc.mapping_epoch == epoch_before + 1
        assert int((llc.engine.tags != -1).sum()) == snap["lines_remapped"]
        # The memo was reseeded under the new keys: every resident line's
        # memoized flat matches where the engine actually holds it.
        for idx in np.flatnonzero(llc.engine.tags != -1).tolist():
            line = int(llc.engine.tags[idx])
            flat = idx // llc.engine.ways
            assert llc._flat_memo[line] == flat
            assert llc.mapping.flat_of(line << GEOMETRY.offset_bits, line) == flat

    def test_rekey_fires_on_schedule(self):
        period = 32
        llc = _llc(f"keyed:epoch={period}")
        paddr = 0
        for i in range(period):
            llc.cpu_access(paddr + (i << GEOMETRY.offset_bits))
        assert llc.mapping_epoch == 0
        assert llc.accesses_until_rekey() == 0
        llc.cpu_access(paddr)  # access period+1 triggers the re-key first
        assert llc.mapping_epoch == 1

    def test_epoch_zero_is_static(self):
        llc = _llc("keyed:epoch=0")
        for i in range(200):
            llc.cpu_access(i << GEOMETRY.offset_bits)
        assert llc.mapping_epoch == 0
        assert llc.mapping.stats.epochs == 0
        assert llc.accesses_until_rekey() == sys.maxsize

    def test_skewed_mapping_cannot_rekey(self):
        mapping = _mapping("skewed:partitions=3")
        mapping.epoch_period = 64
        with pytest.raises(ValueError, match="skewed"):
            SlicedLLC(geometry=GEOMETRY, backend=mapping)


def _rekey_loop(llc: SlicedLLC) -> None:
    """The per-line re-key the closed form replaced, kept as its
    reference: reinsert every resident line, LRU to MRU, through scalar
    ``CacheEngine.insert`` and account each eviction as it happens."""
    engine = llc.engine
    occ = np.flatnonzero(engine.tags != -1)
    lines = engine.tags[occ]
    flags = engine.flags[occ]
    order = np.argsort(engine.stamps[occ], kind="stable")
    llc.mapping.advance_epoch()
    llc.mapping_epoch += 1
    engine.tags.fill(-1)
    engine.flags.fill(0)
    engine.stamps.fill(0)
    engine._size = [0] * engine.n_sets
    engine._n_io = [0] * engine.n_sets
    engine._dir.clear()
    stats = llc.mapping.stats
    stats.epochs += 1
    new_flats = llc.mapping.flats_of_many(lines << GEOMETRY.offset_bits, lines)
    llc._flat_memo.clear()
    llc._flat_memo.update(zip(lines.tolist(), new_flats.tolist()))
    dropped = 0
    for i in order.tolist():
        evicted = engine.insert(int(new_flats[i]), int(lines[i]), int(flags[i]))
        if evicted is not None:
            dropped += 1
            ev_line, ev_flags = evicted
            llc.stats.invalidations += 1
            if llc.evict_hook is not None:
                llc.evict_hook(ev_line)
            if ev_flags & LINE_DIRTY:
                llc.stats.writebacks += 1
                llc.traffic.writes += 1
    stats.lines_remapped += len(occ) - dropped
    stats.lines_dropped += dropped


def _rekey_state(llc: SlicedLLC, hooked: list[int]) -> dict:
    engine = llc.engine
    # The directory maps every resident line, and only those, to its slot.
    for line, slot in engine._dir.items():
        assert engine.tags[slot] == line
    assert len(engine._dir) == int((engine.tags != -1).sum())
    return {
        "tags": engine.tags.tolist(),
        "flags": engine.flags.tolist(),
        "stamps": engine.stamps.tolist(),
        "dir": dict(engine._dir),
        "size": list(engine._size),
        "n_io": list(engine._n_io),
        "tick": engine._tick,
        "stats": llc.stats.snapshot(),
        "traffic": (llc.traffic.reads, llc.traffic.writes),
        "mapping": llc.mapping.stats.snapshot(),
        "epoch": (llc.mapping_epoch, llc.mapping.epoch),
        "memo": dict(llc._flat_memo),
        "hooked": hooked,
    }


class TestClosedFormRekey:
    @pytest.mark.parametrize("n_ops", [0, 40, 300, 1200])
    def test_matches_the_reinsert_loop(self, n_ops):
        """Twelve random keyed states per size (48 in all): CPU reads and
        writes, DMA fills and flushes, with an evict hook installed."""
        drops = 0
        for seed in range(12):
            rng = np.random.default_rng(1000 * n_ops + seed)
            llc = _llc("keyed:epoch=0", seed=seed)
            for _ in range(n_ops):
                kind = int(rng.integers(0, 4))
                paddr = int(rng.integers(0, 900)) << GEOMETRY.offset_bits
                if kind == 3:
                    llc.io_write(paddr)
                elif kind == 2:
                    llc.flush(paddr)
                else:
                    llc.cpu_access(paddr, write=kind == 1)
            loop, closed = llc, copy.deepcopy(llc)
            hooked_loop: list[int] = []
            hooked_closed: list[int] = []
            loop.evict_hook = hooked_loop.append
            closed.evict_hook = hooked_closed.append
            _rekey_loop(loop)
            closed._rekey(now=0)
            a = _rekey_state(loop, hooked_loop)
            b = _rekey_state(closed, hooked_closed)
            for key in a:
                assert a[key] == b[key], f"{key} diverged (n_ops={n_ops}, seed={seed})"
            drops += a["mapping"]["lines_dropped"]
        assert drops > 0 or n_ops < 300  # the larger states drop lines


def _random_ops(seed: int, n: int):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        kind = int(rng.integers(0, 3))
        paddr = int(rng.integers(0, 600)) << GEOMETRY.offset_bits
        ops.append((kind, paddr))
    return ops


def _apply_scalar(llc: SlicedLLC, ops):
    for kind, paddr in ops:
        if kind == 2:
            llc.io_write(paddr)
        else:
            llc.cpu_access(paddr, write=kind == 1)


def _apply_batched(llc: SlicedLLC, ops, chunk: int = 37):
    # Same op stream, but contiguous same-kind runs go through the
    # batched entry points in fixed-size chunks.
    i = 0
    while i < len(ops):
        kind = ops[i][0]
        j = i
        while j < len(ops) and ops[j][0] == kind and j - i < chunk:
            j += 1
        paddrs = np.asarray([p for _k, p in ops[i:j]], dtype=np.int64)
        if kind == 2:
            llc.io_write_many(paddrs.tolist())
        else:
            llc.access_many(paddrs, write=kind == 1)
        i = j


def _state(llc: SlicedLLC):
    return [
        llc.engine.lines_in_lru_order(flat) for flat in range(GEOMETRY.total_sets)
    ]


#: Backends whose batched accesses must leave the loop's raw engine state;
#: epoch 97 re-keys inside the random streams below.
RAW_SPECS = ["modulo", "keyed:epoch=0", "keyed:epoch=97", "skewed:partitions=2"]


def _mixed_batch(rng: np.random.Generator, llc: SlicedLLC) -> np.ndarray:
    """10-60 accesses: about half to resident lines (so most sets hold
    both sure hits and misses), the rest to random lines, with repeats."""
    resident = llc.engine.tags[llc.engine.tags != -1]
    n = int(rng.integers(10, 61))
    lines = rng.integers(0, 600, size=n)
    if len(resident):
        old = rng.random(n) < 0.5
        lines[old] = rng.choice(resident, size=int(old.sum()))
    return (lines << GEOMETRY.offset_bits).astype(np.int64)


def _raw_state(llc: SlicedLLC) -> dict:
    engine = llc.engine
    return {
        "tags": engine.tags.tobytes(),
        "flags": engine.flags.tobytes(),
        "stamps": engine.stamps.tobytes(),
        "tick": engine._tick,
        "dir": dict(engine._dir),
        "size": list(engine._size),
        "n_io": list(engine._n_io),
        "stats": llc.stats.snapshot(),
        "traffic": (llc.traffic.reads, llc.traffic.writes),
        "mapping": llc.mapping.stats.snapshot(),
        "epoch": (llc.mapping_epoch, llc._access_count),
    }


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize(
        "spec", ["keyed:epoch=0", "keyed:epoch=100", "skewed", "skewed:partitions=3"]
    )
    def test_batched_equals_scalar(self, spec):
        ops = _random_ops(29, 900)
        a, b = _llc(spec), _llc(spec)
        _apply_scalar(a, ops)
        _apply_batched(b, ops)
        assert _state(a) == _state(b)
        assert a.stats.snapshot() == b.stats.snapshot()
        assert a.mapping_epoch == b.mapping_epoch
        assert a.mapping.stats.snapshot() == b.mapping.stats.snapshot()

    def test_rekey_lands_mid_batch_identically(self):
        # A batch longer than the remaining epoch budget must replay
        # scalar so the re-key fires at the exact access it would in a
        # loop — pin it by crossing the boundary inside one batch.
        spec = "keyed:epoch=50"
        ops = [(0, (i % 120) << GEOMETRY.offset_bits) for i in range(400)]
        a, b = _llc(spec), _llc(spec)
        _apply_scalar(a, ops)
        _apply_batched(b, ops, chunk=400)
        assert a.mapping_epoch == b.mapping_epoch > 0
        assert _state(a) == _state(b)

    @pytest.mark.parametrize("spec", RAW_SPECS)
    def test_raw_state_equals_the_loop(self, spec):
        """Random batches, each mixing resident lines, new lines and
        repeats, through ``access_many`` and through a ``cpu_access``
        loop: the raw engine arrays (stamps included), the tick, the
        directory and every counter must match after each batch, also
        across re-keys."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            batched, loop = _llc(spec, seed=seed), _llc(spec, seed=seed)
            for _ in range(8):
                paddrs = _mixed_batch(rng, batched)
                write = bool(rng.integers(0, 2))
                hits, lats = batched.access_many(paddrs, write=write)
                ref = [loop.cpu_access(p, write=write) for p in paddrs.tolist()]
                assert list(zip(hits.tolist(), lats.tolist())) == ref
                assert _raw_state(batched) == _raw_state(loop), f"seed {seed}"
            assert loop.mapping.epoch_period == 0 or loop.mapping_epoch > 0

    @pytest.mark.parametrize("spec", RAW_SPECS)
    def test_until_prefix_equals_the_loop(self, spec):
        """With ``until``, ``access_many`` runs a prefix in which every
        access starts before ``until`` (latency plus ``extra`` per
        access), at least one access long; the rest of the batch goes
        to the next call, as ``Machine.cpu_access_many`` issues it."""
        timing = _llc(spec).timing
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            batched, loop = _llc(spec, seed=seed), _llc(spec, seed=seed)
            cut = 0
            for _ in range(8):
                paddrs = _mixed_batch(rng, batched)
                extra = int(rng.integers(0, 2)) * timing.measure_overhead
                done = 0
                while done < len(paddrs):
                    window = int(rng.integers(1, 12 * timing.llc_miss_latency))
                    hits, lats = batched.access_many(
                        paddrs[done:], now=1000, until=1000 + window, extra=extra
                    )
                    k = len(lats)
                    assert k >= 1
                    starts = np.cumsum(lats + extra) - (lats + extra)
                    assert starts[-1] < window
                    ref = [loop.cpu_access(p) for p in paddrs[done : done + k].tolist()]
                    assert list(zip(hits.tolist(), lats.tolist())) == ref
                    assert _raw_state(batched) == _raw_state(loop), f"seed {seed}"
                    cut += done + k < len(paddrs)
                    done += k
            assert cut > 0
            assert batched.mapping_epoch == loop.mapping_epoch


class TestOneDecompositionRule:
    @pytest.mark.parametrize(
        "spec", ["modulo", "keyed:epoch=100000", "skewed:partitions=2"]
    )
    def test_memo_held_lines_make_no_mapping_call(self, spec, monkeypatch):
        """``access_many`` (its replays included) and ``rx_burst`` take
        the flat of every line the memo holds from the memo, whichever
        path put it there, and send the lines it lacks to one
        ``flats_of_many`` call."""
        llc = _llc(spec)
        paddrs = _paddrs(np.random.default_rng(5), 900)
        for paddr in paddrs[:300].tolist():
            llc.cpu_access(paddr)
        llc.access_many(paddrs[300:])
        mapping = llc.mapping
        calls = []

        def counted(name):
            real = getattr(mapping, name)

            def call(paddrs, lines):
                calls.append((name, np.size(lines)))
                return real(paddrs, lines)

            monkeypatch.setattr(mapping, name, call)

        counted("flat_of")
        counted("flats_of_many")
        hits, _lats = llc.access_many(np.random.default_rng(6).permutation(paddrs))
        assert not hits.all()  # misses, so replays ran
        if llc.supports_rx_burst():
            lines = list(dict.fromkeys((paddrs >> GEOMETRY.offset_bits).tolist()))
            n = len(lines)
            llc.rx_burst(lines, [0] * n, list(range(n)), n, 0)
        assert calls == []
        fresh = (np.arange(40, dtype=np.int64) + (1 << 17)) << GEOMETRY.offset_bits
        llc.access_many(fresh)
        assert calls == [("flats_of_many", 40)]

    @pytest.mark.parametrize(
        "spec", ["modulo", "keyed:epoch=100000", "skewed:partitions=2"]
    )
    def test_resident_lines_are_never_decomposed(self, spec, monkeypatch):
        """The engine's directory finds a resident line, so no path that
        acts on one asks for its set: CPU reads and writes, an all-hit
        batch, repeated hits, a DMA write, a flush, and an L1 writeback
        into the line's LLC copy."""
        llc = _llc(spec)
        hierarchy = CacheHierarchy(llc, l1=L1Cache(size_kb=4, ways=1))
        engine = llc.engine
        llc.access_many(_paddrs(np.random.default_rng(8), 200))
        # Two lines of one L1 set, beyond the random range: ``dirty`` is
        # read, then written in the L1 only, so its LLC copy stays clean.
        dirty = (1 << 17) << GEOMETRY.offset_bits
        other = dirty + hierarchy.l1.n_sets * GEOMETRY.line_size
        hierarchy.access(dirty)
        hierarchy.access(dirty, write=True)
        llc.cpu_access(other)
        resident = engine.tags[engine.tags != -1] << GEOMETRY.offset_bits
        assert len(resident) > 100 and dirty in resident and other in resident
        calls = []

        def counted(owner, name):
            real = getattr(owner, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, call)

        counted(llc, "flat_set_of")
        counted(llc, "decompose_many")
        counted(llc.mapping, "flat_of")
        counted(llc.mapping, "flats_of_many")
        for i, paddr in enumerate(resident[:40].tolist()):
            assert llc.cpu_access(paddr, write=i % 2 == 1)[0]
        hits, _lats = llc.access_many(resident[::-1])
        assert hits.all()
        llc.repeat_hits(resident, 3)
        llc.io_write(int(resident[-1]))
        assert llc.stats.io_hits == 1
        # ``other`` takes the L1's one way from ``dirty``, whose writeback
        # dirties its LLC copy and stamps it MRU.
        slot = int(np.flatnonzero(engine.tags == dirty >> GEOMETRY.offset_bits)[0])
        assert not engine.flags[slot] & LINE_DIRTY
        assert hierarchy.access(other) == (
            False, hierarchy.timing.l1_hit_latency + llc.timing.llc_hit_latency
        )
        assert engine.flags[slot] & LINE_DIRTY
        assert engine.stamps[slot] == engine._tick
        llc.flush(int(resident[-2]))
        assert not llc.is_resident(int(resident[-2]))
        assert calls == []


class TestSkewedPartitions:
    def test_lines_stay_in_their_partition_ways(self):
        llc = _llc("skewed:partitions=3")
        part_ways = GEOMETRY.ways // 3
        _apply_scalar(llc, _random_ops(31, 1500))
        occupied = np.flatnonzero(llc.engine.tags != -1)
        assert len(occupied)
        for idx in occupied.tolist():
            line = int(llc.engine.tags[idx])
            way = idx % GEOMETRY.ways
            p = llc.mapping.partition_of(line)
            assert p * part_ways <= way < (p + 1) * part_ways

    def test_partition_of_matches_vectorised_selector(self):
        mapping = _mapping("skewed:partitions=3")
        lines = np.arange(512, dtype=np.int64)
        parts = mapping._partitions_of_many(lines)
        for line, p in zip(lines.tolist(), parts.tolist()):
            assert mapping.partition_of(line) == p

    def test_partitions_must_divide_ways(self):
        with pytest.raises(ValueError):
            _mapping("skewed:partitions=5")


class TestSpecParsing:
    def test_known_names(self):
        assert backend_names() == ["modulo", "keyed", "skewed"]
        assert [info.name for info in backend_infos()] == backend_names()

    def test_spec_roundtrip(self):
        assert parse_backend_spec("keyed:epoch=5000") == ("keyed", {"epoch": 5000})
        assert parse_backend_spec("modulo") == ("modulo", {})

    @pytest.mark.parametrize(
        "spec", ["bogus", "keyed:interval=3", "keyed:epoch=abc", "modulo:x=1"]
    )
    def test_bad_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    def test_backend_instances(self):
        assert isinstance(_mapping("modulo"), ModuloMapping)
        assert isinstance(_mapping("keyed"), KeyedMapping)
        assert isinstance(_mapping("skewed"), SkewedMapping)


class TestCliSurface:
    def test_backends_list_exits_zero(self, capsys):
        assert main(["backends", "list"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out

    def test_backends_without_list_is_usage_error(self, capsys):
        assert main(["backends"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_backend_flag_is_usage_error(self, capsys):
        assert main(["fig5", "--backend", "bogus"]) == 2
        assert "unknown cache backend" in capsys.readouterr().err

    def test_bad_backend_param_is_usage_error(self, capsys):
        assert main(["fig5", "--backend", "keyed:nope=1"]) == 2
        assert "bad backend parameter" in capsys.readouterr().err

    def test_run_alias_requires_target(self, capsys):
        assert main(["run"]) == 2
        assert "usage" in capsys.readouterr().err
