#!/usr/bin/env python
"""Run the hot-path benchmarks and their regression gate.

The suite lives in :mod:`reference.bench`, beside the frozen references it
measures against; see there for what is measured and how the gate works.

Usage::

    python scripts/bench_hotpath.py --out BENCH_hotpath.json
    python scripts/bench_hotpath.py --check BENCH_hotpath.json
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from reference.bench import main  # noqa: E402  (path setup first)

if __name__ == "__main__":
    raise SystemExit(main())
