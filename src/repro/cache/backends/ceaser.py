"""CEASER-shaped keyed-index backend.

CEASER (Qureshi, MICRO'18) interposes a keyed block cipher between the
line address and the set index and changes the key every *epoch*,
relocating resident lines to their new sets as it goes.  The modelled
analogue here:

* the flat set id is a keyed permutation of the conventional index,
  tweaked by the line's tag bits (:func:`keyed_permute_many`), so
  same-offset lines of different pages no longer share sets;
* every ``epoch_period`` cache accesses the LLC re-keys: it snapshots
  resident lines in recency order, installs fresh round keys via
  :meth:`advance_epoch`, and reinserts each line under the new mapping
  (in closed form, :meth:`~repro.cache.engine.CacheEngine.reload`).
  Lines whose new set fills before their turn are dropped (dirty ones
  written back); :class:`~repro.cache.backends.base.MappingStats`
  accounts both outcomes exactly.

Between re-keys the mapping is static, so the batched kernels stay
valid; the LLC splits a batch a re-key would land inside at the
re-key, and an rx burst ends before it.
"""

from __future__ import annotations

import numpy as np

from repro.cache.backends.base import (
    IndexMapping,
    derive_index_key,
    keyed_permute_many,
)
from repro.cache.slicehash import SliceHash
from repro.core.config import CacheGeometry

#: Accesses between re-keys.  Real CEASER re-keys every N*W*S accesses
#: (~100 per line); the scaled default keeps several epochs inside one
#: experiment run without drowning it in remap work.
DEFAULT_EPOCH_PERIOD = 100_000

#: Permutation rounds: 3 is enough to decorrelate page-stride candidate
#: groups at every geometry the repo uses (tested as a permutation).
N_ROUNDS = 3


class KeyedMapping(IndexMapping):
    """Single keyed hash over the line address, with epoch re-keying."""

    name = "keyed"

    def __init__(
        self,
        geometry: CacheGeometry,
        slice_hash: SliceHash,
        seed: int = 0,
        epoch_period: int = DEFAULT_EPOCH_PERIOD,
    ) -> None:
        super().__init__(geometry, slice_hash)
        if epoch_period < 0:
            raise ValueError(f"epoch_period must be >= 0, got {epoch_period}")
        self.seed = seed
        self.epoch_period = epoch_period
        self.epoch = 0
        self._tag_shift = geometry.set_bits
        self._round_keys = self._derive_keys()

    def _derive_keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (
                derive_index_key(self.seed, "keyed.xor", self.epoch, r),
                derive_index_key(self.seed, "keyed.mul", self.epoch, r),
            )
            for r in range(N_ROUNDS)
        )

    def advance_epoch(self) -> None:
        self.epoch += 1
        self._round_keys = self._derive_keys()

    def flats_of_many(self, paddrs: np.ndarray, lines: np.ndarray) -> np.ndarray:
        base = self.modulo_flats(paddrs, lines)
        tags = (lines >> self._tag_shift).astype(np.uint64)
        out = keyed_permute_many(
            base.astype(np.uint64), tags, self._round_keys, self.flat_bits
        )
        return out.astype(np.int64)
