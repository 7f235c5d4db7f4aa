#!/usr/bin/env python
"""Guard the telemetry layer's zero-overhead-when-disabled promise.

Runs the fig6 smoke case twice per round — once with no telemetry at all
(the seed behaviour) and once with a *disabled* telemetry session
installed, which is the worst case a non-tracing user pays: every machine
wires the hooks, every hook site performs its ``is None`` / ``enabled``
guard, and nothing records.  The best-of-N wall-clock times must agree
within the tolerance (default 5%, per the acceptance criteria) and the
experiment results must be bit-identical.

A second gate targets the signal-quality hooks (``repro.telemetry.quality``)
*inside an enabled-metrics session*: a probe-heavy workload (calibration,
page-aligned eviction-set construction, a sampling sweep — every hot hook
site) runs with the quality recorders on vs switched off via
``set_hooks_enabled``, and the recorders may add at most
``--enabled-tolerance`` (default 5%) on top of the already-enabled
session.  Results must again be bit-identical: the hooks only observe.

Usage::

    python scripts/check_telemetry_overhead.py
    python scripts/check_telemetry_overhead.py \
        --instances 24 --rounds 5 --tolerance 0.05
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core.config import MachineConfig  # noqa: E402  (path setup first)
from repro.experiments.mapping import run_fig6  # noqa: E402
from repro.telemetry import Telemetry, session  # noqa: E402
from repro.telemetry.quality import set_hooks_enabled  # noqa: E402


def _time_once(config: MachineConfig, instances: int, telemetry: Telemetry | None):
    start = time.perf_counter()
    if telemetry is None:
        result = run_fig6(instances=instances, config=config)
    else:
        with session(telemetry):
            result = run_fig6(instances=instances, config=config)
    return time.perf_counter() - start, result


def _time_probe_workload(
    config: MachineConfig, n_samples: int, hooks: bool
) -> tuple[float, list[float]]:
    """One enabled-metrics probe workload; returns (seconds, activity).

    Touches every hot quality-hook site: threshold calibration, oracle
    eviction-set construction and a full sampling sweep.
    """
    from repro.attack.evictionset import OracleEvictionSetBuilder
    from repro.attack.primeprobe import ProbeMonitor
    from repro.attack.timing import calibrate_threshold
    from repro.core.machine import Machine

    previous = set_hooks_enabled(hooks)
    try:
        telemetry = Telemetry.create(trace=False, metrics=True)
        start = time.perf_counter()
        with session(telemetry):
            machine = Machine(config)
            machine.install_nic()
            spy = machine.new_process("spy")
            threshold = calibrate_threshold(spy)
            builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
            groups = builder.build_page_aligned_groups(block=0)
            trace = ProbeMonitor(spy, groups).sample(n_samples, wait_cycles=20_000)
        return time.perf_counter() - start, trace.activity_fraction()
    finally:
        set_hooks_enabled(previous)


def check_enabled_overhead(
    config: MachineConfig, n_samples: int, rounds: int, tolerance: float
) -> int:
    """Gate the quality recorders' cost inside an enabled session; 0 = pass."""
    _time_probe_workload(config, n_samples, hooks=False)  # warm-up
    off_times, on_times = [], []
    off_result = on_result = None
    for _ in range(rounds):
        seconds, off_result = _time_probe_workload(config, n_samples, hooks=False)
        off_times.append(seconds)
        seconds, on_result = _time_probe_workload(config, n_samples, hooks=True)
        on_times.append(seconds)

    if off_result != on_result:
        print("FAIL: quality hooks changed the probe activity trace")
        return 1

    off, on = min(off_times), min(on_times)
    overhead = (on - off) / off
    print(
        f"probe workload ({n_samples} sweeps, best of {rounds}, metrics on): "
        f"hooks-off {off:.3f}s, hooks-on {on:.3f}s, "
        f"overhead {overhead:+.1%} (tolerance {tolerance:.0%})"
    )
    if overhead > tolerance:
        print("FAIL: enabled-session quality-hook overhead exceeds tolerance")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=48,
                        help="fig6 driver inits per run (default 48; smaller "
                        "runs drown the comparison in scheduler noise)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interleaved timing rounds; best-of is compared")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed relative overhead (default 0.05 = 5%%)")
    parser.add_argument("--probe-samples", type=int, default=300,
                        help="sweeps in the enabled-session probe workload")
    parser.add_argument("--enabled-tolerance", type=float, default=0.05,
                        help="allowed relative cost of the quality hooks "
                        "inside an enabled-metrics session")
    args = parser.parse_args(argv)

    config = MachineConfig().scaled_down()
    # Warm-up: first run pays import/alloc costs that are not telemetry's.
    _time_once(config, args.instances, None)

    baseline_times, disabled_times = [], []
    baseline_result = disabled_result = None
    for _ in range(args.rounds):
        # Interleave the two modes so drift (thermal, noisy neighbours)
        # hits both equally instead of biasing whichever ran last.
        seconds, baseline_result = _time_once(config, args.instances, None)
        baseline_times.append(seconds)
        seconds, disabled_result = _time_once(
            config, args.instances, Telemetry.create(trace=False, metrics=False)
        )
        disabled_times.append(seconds)

    if baseline_result.histogram != disabled_result.histogram:
        print("FAIL: disabled telemetry changed the fig6 histogram")
        return 1

    baseline = min(baseline_times)
    disabled = min(disabled_times)
    overhead = (disabled - baseline) / baseline
    print(
        f"fig6 smoke ({args.instances} inits, best of {args.rounds}): "
        f"baseline {baseline:.3f}s, disabled-telemetry {disabled:.3f}s, "
        f"overhead {overhead:+.1%} (tolerance {args.tolerance:.0%})"
    )
    if overhead > args.tolerance:
        print("FAIL: disabled-telemetry overhead exceeds tolerance")
        return 1

    status = check_enabled_overhead(
        config, args.probe_samples, args.rounds, args.enabled_tolerance
    )
    if status != 0:
        return status
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
