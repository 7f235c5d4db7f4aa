"""Host times scaled to a reference interpreter speed.

On a host whose CPUs are shared with other tenants, the same pure-Python
loop can take anywhere from 1x to 2x its quiet-machine time, in phases
that last seconds.  Raw host times of two runs then differ by far more
than any change worth detecting.  :class:`SpeedClock` runs a short fixed
loop (:func:`yardstick`) between ops, every :attr:`interval` seconds, and
scales each measured interval by ``REFERENCE_S / yardstick`` interpolated
at the interval's midpoint: the result is the time the interval would have
taken with the yardstick at its reference duration.  The yardstick itself
is never inside a measured interval.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Yardstick duration, in seconds, that scaled times are expressed against.
REFERENCE_S = 0.006
#: Iterations of the yardstick loop (about REFERENCE_S on the reference host).
YARDSTICK_ITERATIONS = 1500

_BASE = np.arange(64, dtype=np.int64)


def yardstick() -> float:
    """Host seconds one fixed loop takes right now.

    The loop mixes what the simulator spends its time on — small numpy
    operations dispatched from Python, dict stores and integer arithmetic —
    so a contended CPU slows it roughly as much as the workloads; a
    pure-integer loop tracked them about half as well.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(YARDSTICK_ITERATIONS):
        shifted = _BASE + i
        acc += int(shifted[shifted > 40].sum())
        table[i & 255] = acc
    return perf_counter() - t0


class SpeedClock:
    """Yardstick samples over a run, and the scaling they imply."""

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        """Run the yardstick now."""
        t0 = perf_counter()
        duration = yardstick()
        self.times.append(t0 + duration / 2)
        self.durations.append(duration)
        self._next = perf_counter() + self.interval

    def tick(self) -> None:
        """Sample if the last sample is older than :attr:`interval`."""
        if perf_counter() >= self._next:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference-speed seconds per host second over ``[start, end]``."""
        if not self.times:
            raise RuntimeError("no yardstick sample taken")
        local = float(np.interp((start + end) / 2, self.times, self.durations))
        return REFERENCE_S / local

    def scale(self, start: float, end: float) -> float:
        """``end - start`` host seconds, scaled to the reference speed."""
        return (end - start) * self.factor(start, end)
