"""The ``IndexMapping`` seam: pluggable paddr -> flat-set policies.

The LLC maps a line address to a set only to place the line (its
engine's directory finds a resident one), through two decomposition
primitives over one per-line memo — the scalar
:meth:`repro.cache.llc.SlicedLLC.flat_set_of` and the list-wise
:meth:`~repro.cache.llc.SlicedLLC.decompose_many` — and its packed-array
kernels only ever see *flat set ids* and slots.  That makes the set-index
function itself a policy seam: a randomized-index cache (CEASER-style
keyed remapping, ScatterCache-style skews) differs from a conventional
one exactly and only in how a line address becomes a flat set id (and,
for skews, in which ways of that set are candidate victims).

An :class:`IndexMapping` captures that policy:

* :meth:`flat_of` / :meth:`flats_of_many` — the scalar and vectorised
  mapping.  The two must agree bit-for-bit (pinned by tests), so the
  batched kernels and the memoized scalar path stay interchangeable.
* ``epoch_period`` — accesses between re-keys (0 = static mapping).
  The LLC owns the access counting and the remap procedure; the mapping
  only supplies fresh keys via :meth:`advance_epoch` and records the
  outcome in :class:`MappingStats`.
* ``n_partitions`` — way-partition count for skewed designs.  The LLC
  restricts victim selection for a line to its partition's ways via
  :meth:`partition_of`.

Keyed mappings are built from a seeded permutation over the flat-set
space (:func:`keyed_permute_many`): xor / odd-multiply / xor-shift
rounds, each a bijection over ``[0, total_sets)`` for any fixed line
tag, with the tag folded in as a tweak so distinct congruence classes
scatter differently — the property that breaks page-aligned eviction
set construction.  All arithmetic is uint64 with explicit masking so
numpy vectors and Python ints wrap identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.cache.slicehash import SliceHash
from repro.core.config import CacheGeometry

#: 64-bit mask: Python-int arithmetic must wrap exactly like np.uint64.
_M64 = (1 << 64) - 1

#: SplitMix64 constants (Steele et al.) — the standard 64-bit finalizer.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def derive_index_key(root_seed: int, domain: str, *words: int) -> int:
    """A 64-bit key derived from the machine seed, namespaced by ``domain``.

    Same discipline as :func:`repro.faults.plan.derive_fault_seed`: the
    domain string is folded through SHA-256 so every consumer gets an
    independent, platform-stable stream, and the spawn goes through
    ``SeedSequence`` so keys are decorrelated even for adjacent seeds.
    """
    tag = int.from_bytes(
        hashlib.sha256(f"repro.cache.backends:{domain}".encode()).digest()[:8],
        "little",
    )
    seq = np.random.SeedSequence([root_seed & _M64, tag, *(w & _M64 for w in words)])
    lo, hi = (int(x) for x in seq.generate_state(2, np.uint64))
    return ((hi << 32) ^ lo) & _M64


def mix64(x: int) -> int:
    """SplitMix64 finalizer over a Python int (wraps like uint64)."""
    x = (x + _SM_GAMMA) & _M64
    x ^= x >> 30
    x = (x * _SM_MUL1) & _M64
    x ^= x >> 27
    x = (x * _SM_MUL2) & _M64
    return x ^ (x >> 31)


def keyed_permute_many(
    base: np.ndarray,
    tags: np.ndarray,
    round_keys: tuple[tuple[int, int], ...],
    set_bits: int,
) -> np.ndarray:
    """Apply the keyed set permutation to uint64 ``base`` indices.

    Each round is ``x ^= mix(tag, k_xor); x *= odd(k_mul); x ^= x >> s``
    over the low ``set_bits`` bits.  For any fixed tag value every step
    is a bijection on ``[0, 2**set_bits)`` — xor by a constant,
    multiplication by an odd number mod ``2**set_bits``, and the
    xorshift — so the composition is a permutation over the sets, while
    the tag tweak decorrelates congruence classes.

    Inputs are consumed as uint64; the return array is uint64 with only
    the low ``set_bits`` bits populated.
    """
    mask = np.uint64((1 << set_bits) - 1)
    shift = np.uint64(max(1, set_bits // 2))
    x = base.astype(np.uint64, copy=True)
    t = tags.astype(np.uint64, copy=False)
    for k_xor, k_mul in round_keys:
        tweak = (t + np.uint64(k_xor)) * np.uint64(_SM_GAMMA)
        tweak ^= tweak >> np.uint64(31)
        tweak *= np.uint64(_SM_MUL1)
        tweak ^= tweak >> np.uint64(27)
        x ^= tweak & mask
        x = (x * np.uint64(k_mul | 1)) & mask
        x ^= x >> shift
    return x & mask


@dataclass
class MappingStats:
    """Remap / invalidation accounting for randomized mappings.

    ``epochs`` counts completed re-keys; per re-key, every resident line
    is either *remapped* (reinserted under the fresh key) or *dropped*
    (its new set filled up before its turn — the modelled analogue of
    the relocation traffic a real CEASER spreads over the epoch).
    """

    epochs: int = 0
    lines_remapped: int = 0
    lines_dropped: int = 0

    def snapshot(self) -> dict:
        return {
            "epochs": self.epochs,
            "lines_remapped": self.lines_remapped,
            "lines_dropped": self.lines_dropped,
        }


@dataclass(frozen=True)
class BackendInfo:
    """Registry row for ``repro backends list``."""

    name: str
    summary: str
    params: str


class IndexMapping:
    """Base class: the identity of a cache-index policy.

    Subclasses override :meth:`flats_of_many` and, for randomized
    designs, the epoch / partition hooks.  The base :meth:`flat_of` is a
    one-address :meth:`flats_of_many` call; a subclass may override it
    with a scalar form of the same function (:class:`ModuloMapping`
    does, for the LLC's cold one-address lookups), and tests pin that
    the two agree.
    """

    #: Registry name ("modulo", "keyed", "skewed").
    name = "base"
    #: True when flat placement is the plain modulo form the paper's
    #: attacker assumes (page-aligned candidate striding works).
    index_transparent = False
    #: Way-partition count for skewed designs (1 = unrestricted victims).
    n_partitions = 1
    #: Accesses between re-keys; 0 = the mapping never changes.
    epoch_period = 0

    def __init__(self, geometry: CacheGeometry, slice_hash: SliceHash) -> None:
        self.geometry = geometry
        self.slice_hash = slice_hash
        self.stats = MappingStats()
        self._offset_bits = geometry.offset_bits
        self._set_mask = geometry.sets_per_slice - 1
        #: log2(total flat sets): the permutation width for keyed designs.
        self.flat_bits = geometry.set_bits + geometry.slice_bits

    # -- mapping -------------------------------------------------------
    def modulo_flats(self, paddrs: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """The conventional ``slice * sets_per_slice + set_index`` form —
        the base point every backend permutes from."""
        return (
            self.slice_hash.slice_of_many(paddrs) * self.geometry.sets_per_slice
            + (lines & self._set_mask)
        )

    def flats_of_many(self, paddrs: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """Vectorised flat set ids (int64) for line-distinct ``paddrs``."""
        raise NotImplementedError

    def flat_of(self, paddr: int, line: int) -> int:
        """Scalar mapping; exact agreement with :meth:`flats_of_many` is a
        contract (callers memoize per line, kernels vectorise)."""
        paddrs = np.asarray([paddr], dtype=np.int64)
        lines = np.asarray([line], dtype=np.int64)
        return int(self.flats_of_many(paddrs, lines)[0])

    # -- epochs (keyed designs) ----------------------------------------
    def advance_epoch(self) -> None:
        """Install fresh keys; the LLC then remaps resident lines."""
        raise RuntimeError(f"{self.name!r} mapping has no epochs")

    # -- way partitions (skewed designs) -------------------------------
    def partition_of(self, line: int) -> int:
        """Way-partition id of a line (0 when unpartitioned)."""
        return 0
