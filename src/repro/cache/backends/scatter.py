"""ScatterCache-shaped skewed backend.

ScatterCache (Werner et al., USENIX Sec'19) gives each way (or way
group) its own keyed index function and picks the victim among the
*candidate ways* a line may occupy.  The modelled analogue:

* the cache's ways are split into ``n_partitions`` equal way groups;
* a keyed selector hash assigns every line to one partition, and each
  partition applies its *own* keyed permutation of the conventional
  index (independent round keys), so two lines that collide in one
  partition's index space are unrelated in another's;
* on a fill, the victim is chosen among the line's candidate ways only
  — the LLC restricts insertion/eviction to the partition's way range
  (see :meth:`repro.cache.engine.CacheEngine.insert_in`).

The mapping is static (``epoch_period = 0`` — SCv1's key lifetime is
outside the modelled window), so decomposition caches and the
``access_many`` fast path stay valid.  The rx burst kernel does not
model a way-restricted victim policy
(:meth:`~repro.cache.llc.SlicedLLC.supports_rx_burst`), so a skewed
machine delivers every frame on its own.
"""

from __future__ import annotations

import numpy as np

from repro.cache.backends.base import (
    IndexMapping,
    derive_index_key,
    keyed_permute_many,
    mix64,
)
from repro.cache.slicehash import SliceHash
from repro.core.config import CacheGeometry

DEFAULT_PARTITIONS = 2
N_ROUNDS = 3


class SkewedMapping(IndexMapping):
    """Per-partition keyed indexes; victims restricted to candidate ways."""

    name = "skewed"

    def __init__(
        self,
        geometry: CacheGeometry,
        slice_hash: SliceHash,
        seed: int = 0,
        n_partitions: int = DEFAULT_PARTITIONS,
    ) -> None:
        super().__init__(geometry, slice_hash)
        if n_partitions < 1:
            raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
        if geometry.ways % n_partitions:
            raise ValueError(
                f"n_partitions={n_partitions} must divide ways={geometry.ways}"
            )
        self.seed = seed
        self.n_partitions = n_partitions
        self._tag_shift = geometry.set_bits
        self._select_key = derive_index_key(seed, "skewed.select")
        self._round_keys = tuple(
            tuple(
                (
                    derive_index_key(seed, "skewed.xor", p, r),
                    derive_index_key(seed, "skewed.mul", p, r),
                )
                for r in range(N_ROUNDS)
            )
            for p in range(n_partitions)
        )

    def partition_of(self, line: int) -> int:
        return mix64(line ^ self._select_key) % self.n_partitions

    def _partitions_of_many(self, lines: np.ndarray) -> np.ndarray:
        # Vectorised mix64 over the selector-keyed line addresses.
        x = lines.astype(np.uint64) ^ np.uint64(self._select_key)
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return (x % np.uint64(self.n_partitions)).astype(np.int64)

    def flats_of_many(self, paddrs: np.ndarray, lines: np.ndarray) -> np.ndarray:
        base = self.modulo_flats(paddrs, lines).astype(np.uint64)
        tags = (lines >> self._tag_shift).astype(np.uint64)
        parts = self._partitions_of_many(lines)
        out = np.empty(len(base), dtype=np.int64)
        for p in range(self.n_partitions):
            sel = parts == p
            if not sel.any():
                continue
            out[sel] = keyed_permute_many(
                base[sel], tags[sel], self._round_keys[p], self.flat_bits
            ).astype(np.int64)
        return out
