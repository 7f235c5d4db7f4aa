#!/usr/bin/env python
"""Time the two rx burst paths by burst length: the crossover behind
``repro.cache.engine.ROUND_KERNEL_MIN_OPS``.

Runs the hot-path benchmark's rx stream (``reference.bench``: the MTU-heavy
frame mix at 1 Mpps on the bench-scale machine, no spy) and keeps the
engine state before a few of its long bursts.  Each burst's first ``k``
ops are then applied from that state through the in-order pass and
through the round kernel, with the host's CPU caches flushed before
every application, and the median times are printed per ``k``.

Usage::

    python scripts/rx_crossover.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402  (path setup first)

from reference.bench import _rx_frames, _rx_machine  # noqa: E402
from repro.cache import engine as engine_module  # noqa: E402
from repro.cache.engine import CacheEngine  # noqa: E402
from repro.net.traffic import PatternStream  # noqa: E402

LENGTHS = (
    16, 32, 48, 64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512, 1024, 2048
)
N_BURSTS = 8
REPEATS = 5
_APPLY = CacheEngine.rx_burst_apply


def capture(n_frames: int = 4000) -> tuple[CacheEngine, list]:
    """``(engine, [(state, burst), ...])`` for the stream's long bursts,
    skipping the first few while the ring and cache warm up."""
    machine = _rx_machine(legacy=False)
    engine = machine.llc.engine
    kept: list = []
    seen = [0]

    def keep(self, *burst):
        seen[0] += 1
        if seen[0] > 3 and len(kept) < N_BURSTS and len(burst[0]) >= LENGTHS[-1]:
            kept.append((save(self), tuple(list(a) for a in burst[:4]) + burst[4:]))
        return _APPLY(self, *burst)

    CacheEngine.rx_burst_apply = keep
    try:
        sizes = [frame.size for frame in _rx_frames(n_frames)]
        source = PatternStream(sizes, rate_pps=1e6, protocol="tcp")
        source.attach(machine, machine.nic)
        machine.drain_events()
    finally:
        CacheEngine.rx_burst_apply = _APPLY
    return engine, kept


def save(engine: CacheEngine) -> tuple:
    return (
        engine.tags.copy(), engine.flags.copy(), engine.stamps.copy(),
        list(engine._size), list(engine._n_io), dict(engine._dir), engine._tick,
    )


def restore(engine: CacheEngine, state: tuple) -> None:
    np.copyto(engine.tags, state[0])
    np.copyto(engine.flags, state[1])
    np.copyto(engine.stamps, state[2])
    engine._size, engine._n_io = list(state[3]), list(state[4])
    engine._dir, engine._tick = dict(state[5]), state[6]


def time_path(engine, state, burst, rounds: bool, flush: np.ndarray) -> float:
    """Median seconds to apply ``burst`` from ``state`` on one path."""
    engine_module.ROUND_KERNEL_MIN_OPS = 0 if rounds else sys.maxsize
    times = []
    for _ in range(REPEATS):
        restore(engine, state)
        flush.sum()
        t0 = time.perf_counter()
        _APPLY(engine, *burst)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    engine, kept = capture()
    flush = np.ones(8 << 20, dtype=np.int64)  # 64 MB, past the host's caches
    switch = engine_module.ROUND_KERNEL_MIN_OPS
    print(f"{len(kept)} bursts of {[len(b[0]) for _s, b in kept]} ops")
    print("ops  in-order us  rounds us  rounds/in-order")
    try:
        for k in LENGTHS:
            in_order, rounds = [], []
            for state, (flats, lines, kinds, offs, _total, cap) in kept:
                burst = (flats[:k], lines[:k], kinds[:k], offs[:k], max(offs[:k]) + 1, cap)
                in_order.append(time_path(engine, state, burst, False, flush))
                rounds.append(time_path(engine, state, burst, True, flush))
            a, b = statistics.median(in_order) * 1e6, statistics.median(rounds) * 1e6
            print(f"{k:4d} {a:12.1f} {b:10.1f} {b / a:16.2f}")
    finally:
        engine_module.ROUND_KERNEL_MIN_OPS = switch
    print(f"ROUND_KERNEL_MIN_OPS = {switch}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
