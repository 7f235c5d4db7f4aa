"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload chase --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median
— the figure to hold under each metric's bound in ``BENCHMARK.json``.
``--out`` keeps every run's JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())[
            "end_to_end"
        ]
    }
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        if args.out is not None:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = 0.0
        if len(values) > 1 and median:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:24s} median {median:14.6g}  spread {spread:6.3f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
