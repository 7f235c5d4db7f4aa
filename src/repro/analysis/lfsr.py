"""Linear feedback shift register pseudo-random sequences.

Following Liu et al. (cited by the paper for channel-capacity methodology),
channel quality is measured by transmitting the maximal-length sequence of a
15-bit LFSR — period 2^15 - 1, covering every 15-bit state except all-zeros
— and edit-aligning what the spy received.  The structure of the sequence
makes bit loss, duplication and swaps all visible.

Bit generation is batched: a two-tap Fibonacci LFSR's output obeys
``b[k] = b[k-width] ^ b[k-tap]``, so whole blocks of up to ``tap`` bits at
a time are one array XOR over the output history instead of one Python
call per bit.  The block path reproduces the scalar stepper bit for bit
(including the register state left behind), pinned by
``tests/test_analysis_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

#: Taps for maximal-length sequences, by register width (x^w + x^t + 1).
_MAXIMAL_TAPS = {4: 3, 7: 6, 15: 14, 16: 15}


class LFSR:
    """Fibonacci LFSR with a two-tap maximal polynomial.

    >>> lfsr = LFSR(width=15, seed=0x1)
    >>> bits = [lfsr.next_bit() for _ in range(10)]
    """

    def __init__(self, width: int = 15, seed: int = 0x5A5A) -> None:
        if width not in _MAXIMAL_TAPS:
            raise ValueError(
                f"no maximal polynomial configured for width {width}; "
                f"available: {sorted(_MAXIMAL_TAPS)}"
            )
        self.width = width
        self.mask = (1 << width) - 1
        seed &= self.mask
        if seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed
        self._tap = _MAXIMAL_TAPS[width]

    @property
    def period(self) -> int:
        """Sequence period: 2^width - 1."""
        return self.mask

    def next_bit(self) -> int:
        """Advance one step; returns the output bit (0/1)."""
        new_bit = ((self.state >> (self.width - 1)) ^ (self.state >> (self._tap - 1))) & 1
        self.state = ((self.state << 1) | new_bit) & self.mask
        return new_bit

    def bits(self, count: int) -> list[int]:
        """The next ``count`` output bits.

        Requests run block-vectorised on the recurrence
        ``b[k] = b[k-width] ^ b[k-tap]``: the register state seeds the
        history (state bit ``p`` is output ``b[-1-p]``), each block of
        ``tap`` bits is one slice XOR, and the register is re-packed from
        the last ``width`` outputs afterwards — bit- and state-identical
        to stepping :meth:`next_bit` ``count`` times.
        """
        w, t = self.width, self._tap
        hist = np.empty(w + count, dtype=np.uint8)
        for p in range(w):
            hist[p] = (self.state >> (w - 1 - p)) & 1
        k = 0
        while k < count:
            b = min(t, count - k)
            np.bitwise_xor(
                hist[k : k + b],
                hist[w + k - t : w + k - t + b],
                out=hist[w + k : w + k + b],
            )
            k += b
        out = hist[w:]
        packed = 0
        for bit in out[-w:] if count >= w else out:
            packed = (packed << 1) | int(bit)
        if count >= w:
            self.state = packed
        else:
            self.state = ((self.state << count) | packed) & self.mask
        return out.tolist()


def lfsr_bits(count: int, width: int = 15, seed: int = 0x5A5A) -> list[int]:
    """Convenience: ``count`` bits of a fresh maximal LFSR."""
    return LFSR(width=width, seed=seed).bits(count)


def lfsr_symbols(count: int, alphabet: int, width: int = 15, seed: int = 0x5A5A) -> list[int]:
    """Pseudo-random symbols in ``range(alphabet)`` built from LFSR bits.

    For the ternary covert channel the paper sends base-3 symbols; we pack
    two LFSR bits per draw and reject the out-of-range code so the symbol
    stream stays balanced and reproducible.  Draws are batched: each pass
    generates one block of bits, packs every draw at once and keeps the
    in-range codes — the attempt stream (and hence the symbol sequence)
    is identical to the scalar rejection loop.
    """
    if alphabet < 2:
        raise ValueError(f"alphabet must be >= 2, got {alphabet}")
    bits_per = max(1, (alphabet - 1).bit_length())
    lfsr = LFSR(width=width, seed=seed)
    symbols: list[int] = []
    weights = 1 << np.arange(bits_per - 1, -1, -1, dtype=np.int64)
    while len(symbols) < count:
        need = count - len(symbols)
        raw = np.asarray(lfsr.bits(need * bits_per), dtype=np.int64)
        values = raw.reshape(need, bits_per) @ weights
        symbols.extend(int(v) for v in values[values < alphabet])
    return symbols
