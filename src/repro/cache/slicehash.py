"""Slice-selection hash functions for the sliced LLC.

Starting with Sandy Bridge, Intel splits the LLC into one slice per core and
distributes physical addresses among slices with an undocumented hash of the
high address bits (Fig. 2 of the paper).  The hash has been reverse
engineered for several generations (Maurice et al., Inci et al.) and is a
set of XOR (parity) functions over physical address bits.

:class:`IntelComplexHash` implements that form with the published mask
family; :class:`ModuloSliceHash` is a deliberately simple alternative used
in ablations and tests (it makes slice placement transparent, which is
useful for deterministic unit tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: XOR masks of the reverse-engineered Intel slice hash (one parity function
#: per slice-select bit).  Bit 6 upward participate; the family is the one
#: recovered for 8-slice Xeon parts.
INTEL_XOR_MASKS: tuple[int, ...] = (
    0x1B5F575440,
    0x2EB5FAA880,
    0x3CCCC93100,
)


class SliceHash(ABC):
    """Maps a physical line address to a slice id."""

    def __init__(self, n_slices: int) -> None:
        if n_slices <= 0 or n_slices & (n_slices - 1):
            raise ValueError(f"n_slices must be a power of two, got {n_slices}")
        self.n_slices = n_slices
        self.slice_bits = n_slices.bit_length() - 1

    @abstractmethod
    def slice_of(self, paddr: int) -> int:
        """Slice id (0 .. n_slices-1) for physical address ``paddr``."""

    @abstractmethod
    def slice_of_many(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`slice_of` over an int64 address array."""


class IntelComplexHash(SliceHash):
    """XOR-of-address-bits hash of the form used by Intel LLCs.

    Each slice-select bit is the parity of the physical address ANDed with a
    fixed mask.  The default masks are the published reverse-engineered
    family; alternative masks can be supplied (e.g. per microarchitecture).
    """

    def __init__(self, n_slices: int = 8, masks: tuple[int, ...] | None = None) -> None:
        super().__init__(n_slices)
        masks = masks if masks is not None else INTEL_XOR_MASKS
        if len(masks) < self.slice_bits:
            raise ValueError(
                f"need {self.slice_bits} masks for {n_slices} slices, got {len(masks)}"
            )
        self.masks = tuple(masks[: self.slice_bits])

    def slice_of(self, paddr: int) -> int:
        result = 0
        for bit, mask in enumerate(self.masks):
            result |= ((paddr & mask).bit_count() & 1) << bit
        return result

    def slice_of_many(self, paddrs: np.ndarray) -> np.ndarray:
        paddrs = np.asarray(paddrs, dtype=np.int64)
        result = np.zeros(len(paddrs), dtype=np.int64)
        for bit, mask in enumerate(self.masks):
            parity = np.bitwise_count(paddrs & np.int64(mask)) & 1
            result |= parity.astype(np.int64) << bit
        return result


class ModuloSliceHash(SliceHash):
    """Transparent slice selection: line address modulo slice count.

    Not what real hardware does — used in tests and in the ablation that
    shows the attack does not depend on knowing the hash (the spy resolves
    slices by timing either way).
    """

    def __init__(self, n_slices: int = 8, line_bits: int = 6) -> None:
        super().__init__(n_slices)
        self.line_bits = line_bits

    def slice_of(self, paddr: int) -> int:
        return (paddr >> self.line_bits) & (self.n_slices - 1)

    def slice_of_many(self, paddrs: np.ndarray) -> np.ndarray:
        paddrs = np.asarray(paddrs, dtype=np.int64)
        return (paddrs >> self.line_bits) & (self.n_slices - 1)
