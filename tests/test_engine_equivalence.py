"""Differential equivalence: packed engine vs the frozen legacy model.

Randomized CPU/DMA/flush/partition traces are replayed op-for-op through
:class:`repro.cache.llc.SlicedLLC` (engine-backed) and
:class:`repro.cache.legacy.LegacySlicedLLC` (the pre-refactor
OrderedDict model), asserting identical return values, identical stats
and traffic attribution, and identical per-set content in LRU order —
with and without the partition defense, with DDIO on and off.

A second family of traces exercises :meth:`SlicedLLC.access_many`
(the batched kernel PRIME+PROBE sweeps use) against the legacy scalar
loop, including the replay of every access from a set's first miss on.
"""

import random

import numpy as np
import pytest

from reference.cache import LegacyAdaptivePartition, LegacySlicedLLC
from repro.cache.llc import SlicedLLC
from repro.cache.slicehash import IntelComplexHash, ModuloSliceHash
from repro.core.config import CacheGeometry, DDIOConfig
from repro.defense.partitioning import AdaptivePartition, PartitionConfig

GEOMETRY = CacheGeometry(n_slices=2, sets_per_slice=32, ways=6)
PART_CONFIG = PartitionConfig(period=512, t_high=300, t_low=64)


def build_pair(ddio_enabled: bool, partitioned: bool, hash_cls):
    """An (engine-backed, legacy) LLC pair with identical configuration."""
    ddio = DDIOConfig(enabled=ddio_enabled, write_allocate_ways=2)
    new = SlicedLLC(geometry=GEOMETRY, ddio=ddio, slice_hash=hash_cls(2))
    old = LegacySlicedLLC(geometry=GEOMETRY, ddio=ddio, slice_hash=hash_cls(2))
    if partitioned:
        new.partition = AdaptivePartition(PART_CONFIG)
        old.partition = LegacyAdaptivePartition(PART_CONFIG)
    return new, old


def assert_same_state(new: SlicedLLC, old: LegacySlicedLLC) -> None:
    assert new.stats == old.stats
    assert (new.traffic.reads, new.traffic.writes) == (
        old.traffic.reads,
        old.traffic.writes,
    )
    for flat in range(GEOMETRY.total_sets):
        assert new.engine.lines_in_lru_order(flat) == list(
            old.sets[flat].lines.items()
        ), f"set {flat} diverged"
    if new.partition is not None:
        np_, op = new.partition, old.partition
        assert np_.stats == op.stats
        assert np_._quota == op._quota
        assert np_._default_quota == op._default_quota
        assert np_._presence == op._presence
        assert np_._io_since == op._io_since


def run_trace(
    new: SlicedLLC,
    old: LegacySlicedLLC,
    n_ops: int,
    seed: int,
    n_lines: int = GEOMETRY.total_sets * 3,
) -> None:
    """Replay one randomized scalar trace through both models."""
    rng = random.Random(seed)
    partitioned = new.partition is not None
    now = 0
    for i in range(n_ops):
        now += rng.randrange(1, 40)
        if partitioned and i and i % 400 == 0:
            new.partition.adapt(new, now)
            old.partition.adapt(old, now)
        paddr = rng.randrange(n_lines) * 64
        roll = rng.random()
        if roll < 0.55:
            got = new.cpu_access(paddr, write=roll < 0.2, now=now)
            want = old.cpu_access(paddr, write=roll < 0.2, now=now)
            assert got == want
        elif roll < 0.85:
            new.io_write(paddr, now=now)
            old.io_write(paddr, now=now)
        elif roll < 0.93:
            assert new.flush(paddr) == old.flush(paddr)
        else:
            assert new.is_resident(paddr) == old.is_resident(paddr)
            flat = new.flat_set_of(paddr)
            assert new.set_occupancy(flat) == old.set_occupancy(flat)
        if i % 1000 == 0:
            assert_same_state(new, old)
    assert_same_state(new, old)


@pytest.mark.parametrize("ddio_enabled", [True, False])
@pytest.mark.parametrize("partitioned", [True, False])
def test_scalar_trace_equivalence(ddio_enabled, partitioned):
    """>= 10k randomized ops per configuration, op-for-op identical."""
    new, old = build_pair(ddio_enabled, partitioned, ModuloSliceHash)
    run_trace(new, old, n_ops=10_000, seed=ddio_enabled * 2 + partitioned)


def test_scalar_trace_equivalence_complex_hash():
    """The memoized decomposition agrees with per-access hashing."""
    new, old = build_pair(True, False, IntelComplexHash)
    run_trace(new, old, n_ops=4_000, seed=7)


@pytest.mark.parametrize("ddio_enabled", [True, False])
def test_batched_access_equivalence(ddio_enabled):
    """access_many == a loop of cpu_access, interleaved with DMA traffic."""
    new, old = build_pair(ddio_enabled, False, ModuloSliceHash)
    rng = random.Random(29 + ddio_enabled)
    n_lines = GEOMETRY.total_sets * 3
    for round_ in range(60):
        # Some DMA between batches so batches replay from a set's first miss.
        for _ in range(rng.randrange(0, 30)):
            paddr = rng.randrange(n_lines) * 64
            new.io_write(paddr)
            old.io_write(paddr)
        batch = [rng.randrange(n_lines) * 64 for _ in range(rng.randrange(1, 200))]
        if round_ % 3 == 0:
            # Sweep-like batch: duplicate lines in zig-zag order.
            batch = batch + batch[::-1]
        write = rng.random() < 0.3
        paddrs = np.asarray(batch, dtype=np.int64)
        hits, lats = new.access_many(paddrs, write=write)
        want = [old.cpu_access(p, write=write) for p in batch]
        assert [(bool(h), int(lat)) for h, lat in zip(hits, lats)] == want
        assert_same_state(new, old)


@pytest.mark.parametrize("ddio_enabled", [True, False])
def test_batched_io_write_equivalence(ddio_enabled):
    """io_write_many == a loop of io_write — the NIC's per-frame DMA fill.

    Mixes burst sizes (1..32 lines, the rx-buffer span), interleaves CPU
    traffic so bursts hit resident lines, lines at the DDIO way cap, and
    full sets, and checks stats + LRU state after every burst.
    """
    new, old = build_pair(ddio_enabled, False, ModuloSliceHash)
    rng = random.Random(41 + ddio_enabled)
    n_lines = GEOMETRY.total_sets * 3
    for round_ in range(150):
        for _ in range(rng.randrange(0, 20)):
            paddr = rng.randrange(n_lines) * 64
            w = rng.random() < 0.3
            assert new.cpu_access(paddr, write=w) == old.cpu_access(paddr, write=w)
        if rng.random() < 0.5:
            # Contiguous run, distinct sets — the NIC's actual shape.
            start = rng.randrange(n_lines - 32)
            burst = [(start + k) * 64 for k in range(rng.randrange(1, 33))]
        else:
            # Adversarial: random lines, possibly duplicated in-burst.
            burst = [rng.randrange(n_lines) * 64 for _ in range(rng.randrange(1, 33))]
        new.io_write_many(burst)
        for p in burst:
            old.io_write(p)
        assert_same_state(new, old)


def test_batched_io_write_partition_fallback():
    """io_write_many == a loop of io_write with a partition installed."""
    new, old = build_pair(True, True, ModuloSliceHash)
    rng = random.Random(43)
    n_lines = GEOMETRY.total_sets * 3
    now = 0
    for round_ in range(60):
        now += rng.randrange(1, 50)
        if round_ and round_ % 10 == 0:
            new.partition.adapt(new, now)
            old.partition.adapt(old, now)
        burst = [rng.randrange(n_lines) * 64 for _ in range(rng.randrange(1, 33))]
        new.io_write_many(burst, now=now)
        for p in burst:
            old.io_write(p, now=now)
        assert_same_state(new, old)
