"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chase --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no tracing:
a few timed set-ups, then measured passes of the workload's fixed op
schedule, repeated while another pass fits in ``--seconds``.  The first
pass always runs; each workload's pass is sized so that it and the
set-ups fit in 30 s down to about half the reference speed.  With
``--trace 1`` it replays the first steps of the schedule untraced and then
traced (see ``tracing.py``) and reports the per-layer breakdown, the
tracing overhead and the unattributed share.

Every step's simulated output is checked for consistency, digested and
compared with the digest recorded for this seed in ``reference.json``
(when there is one), with every other pass of the run, and, in a traced
run, with the untraced replay.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` runs one untraced pass and stores its digests as the
reference for the seed; use it only when a change is meant to alter
simulated behaviour.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

if str(ROOT) not in sys.path:  # run as a script: make ``perfbench`` importable
    sys.path.insert(0, str(ROOT))

from perfbench.speed import REFERENCE_S, SpeedClock  # noqa: E402
from perfbench.tracing import SpanTracer  # noqa: E402

#: Set-ups timed (and discarded) before the first measured pass, so
#: ``setup_s`` is always a median of at least three.
EXTRA_SETUPS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("llc_accesses_per_s", "1/s"),
    ("frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Span names whose self time is reported as ``<name>.self_frac``.
SELF_TIME = (
    "attack.clock_active",
    "attack.setsweep",
    "attack.prime",
    "attack.chase",
    "attack.sample",
    "attack.sequencer",
    "attack.calibrate",
    "attack.build",
    "core.cpu_access_many",
    "core.idle",
    "cache.access_many",
    "cache.cpu_access",
    "cache.io_write_many",
    "cache.rx_burst_apply",
    "cache.hierarchy",
    "cache.decompose_many",
    "nic.deliver",
    "nic.deliver_burst",
    "mem.translate",
    "mem.alloc",
    "analysis.classify",
    "analysis.levenshtein",
    "perf.handle_request",
    "defense.adapt",
    "defense.randomizer",
)

#: Span names whose call count is reported as ``<name>.calls``.
CALLS = (
    "attack.clock_active",
    "attack.prime",
    "core.cpu_access_many",
    "core.idle",
    "cache.access_many",
    "cache.cpu_access",
    "cache.io_write_many",
    "cache.rx_burst_apply",
    "nic.deliver",
    "nic.deliver_burst",
    "mem.translate",
    "defense.adapt",
)

PER_LAYER = (
    *((f"{name}.calls", "count") for name in CALLS),
    *((f"{name}.self_frac", "ratio") for name in SELF_TIME),
    ("attack.fill_hit_frac", "ratio"),
    ("attack.chase_timeouts", "count"),
    ("attack.sample.sweeps", "count"),
    ("core.accesses_per_call", "accesses/call"),
    ("core.run_due.calls", "count"),
    ("cache.batched_frac", "ratio"),
    ("cache.rekeys", "count"),
    ("cache.hit_rate", "ratio"),
    ("nic.burst_frac", "ratio"),
    ("nic.drops", "count"),
    ("net.frames_sent", "count"),
    ("perf.agent.calls", "count"),
    ("other.self_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# ----------------------------------------------------------------------
# Simulated outputs: digests and counters
# ----------------------------------------------------------------------
def digest(state, output) -> str:
    """Digest of one step's output plus every machine's final clock and
    LLC/NIC statistics."""
    parts = [repr(output)]
    for machine in state.machines:
        parts.append(
            repr(
                (
                    machine.clock.now,
                    machine.llc.mapping_epoch,
                    sorted(machine.llc.stats.snapshot().items()),
                    sorted(machine.nic.stats.snapshot().items()),
                )
            )
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def counters(state) -> dict[str, int]:
    """Simulated totals summed over the workload's machines."""
    out = dict.fromkeys(
        ("cycles", "llc", "cpu", "cpu_hits", "frames", "drops", "rekeys"), 0
    )
    for machine in state.machines:
        stats = machine.llc.stats
        nic = machine.nic.stats
        out["cycles"] += machine.clock.now
        out["cpu"] += stats.cpu_hits + stats.cpu_misses
        out["cpu_hits"] += stats.cpu_hits
        out["llc"] += stats.cpu_hits + stats.cpu_misses + stats.io_hits + stats.io_fills
        out["frames"] += nic.frames
        out["drops"] += nic.oversize_dropped + nic.overflow_dropped
        out["rekeys"] += machine.llc.mapping_epoch
    out["sent"] = sum(source.sent for source in state.sources)
    return out


# ----------------------------------------------------------------------
# Running the op schedule
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One run of the first ``n`` steps of the schedule on a fresh set-up.

    Times are host seconds scaled to the reference speed (see speed.py);
    ``raw_wall`` is the unscaled host time inside the steps.
    """

    wall: float = 0.0
    raw_wall: float = 0.0
    op_times: list[float] = field(default_factory=list)
    outputs: list[tuple] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    attempted: int = 0
    failed_steps: set[int] = field(default_factory=set)
    sim: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_steps(workload, state, inputs, n_steps: int, clock: SpeedClock) -> PassResult:
    """Run steps ``0..n_steps-1``; a step that raises or whose output fails
    its check is counted failed and the schedule goes on."""
    result = PassResult()
    spans = []
    before = counters(state)
    for index in range(n_steps):
        result.attempted += workload.ops_per_step
        clock.tick()
        t0 = perf_counter()
        try:
            step = workload.step(state, inputs, index)
        except Exception:
            spans.append((t0, perf_counter(), []))
            result.failed_steps.add(index)
            result.digests.append(None)
            result.problems.append(f"step {index} raised:\n{traceback.format_exc()}")
            continue
        spans.append((t0, perf_counter(), step.op_times))
        result.outputs.append(step.output)
        result.digests.append(digest(state, step.output))
        problem = workload.check(step.output)
        if problem is not None:
            result.failed_steps.add(index)
            result.problems.append(f"step {index}: {problem}")
    clock.sample()
    for t0, t1, op_times in spans:
        factor = clock.factor(t0, t1)
        result.raw_wall += t1 - t0
        result.wall += (t1 - t0) * factor
        result.op_times.extend(t * factor for t in op_times)
    after = counters(state)
    result.sim = {key: after[key] - before[key] for key in after}
    # Tracked sources may be only part of the traffic (page-load replays
    # are created per capture), so delivered + dropped bounds them.
    if after["sent"] > after["frames"] + after["drops"]:
        result.problems.append(
            f"{after['sent']} frames sent but {after['frames']} delivered "
            f"and {after['drops']} dropped"
        )
    return result


def compare(result: PassResult, expected: list[str | None], what: str) -> None:
    """Mark every step whose digest differs from ``expected`` as failed."""
    for index, (got, want) in enumerate(zip(result.digests, expected)):
        if want is not None and got != want:
            result.failed_steps.add(index)
            result.problems.append(f"step {index}: digest {got} != {what} {want}")


def load_reference(workload: str, seed: int) -> list[str]:
    if not REFERENCE.exists():
        return []
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), [])


def timed_setup(workload, inputs, clock: SpeedClock):
    """``(state, raw start, raw end)`` of one set-up, yardstick on both sides."""
    clock.tick()
    t0 = perf_counter()
    state = workload.setup(inputs)
    t1 = perf_counter()
    clock.sample()
    return state, t0, t1


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of ``n`` ops beyond it (never
    below the median)."""
    return max(50.0, 100.0 * (n - 10) / n) if n else 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def measure(workload, inputs, seconds: float, reference: list[str]):
    """The untraced run: end-to-end metrics."""
    clock = SpeedClock()
    start = perf_counter()
    setup_times = []
    for _ in range(EXTRA_SETUPS):
        _state, t0, t1 = timed_setup(workload, inputs, clock)
        setup_times.append(clock.scale(t0, t1))
        del _state
        gc.collect()
    passes: list[PassResult] = []
    while True:
        state, t0, t1 = timed_setup(workload, inputs, clock)
        setup_times.append(clock.scale(t0, t1))
        result = run_steps(workload, state, inputs, workload.steps_per_pass, clock)
        compare(result, reference, "reference")
        if passes:
            compare(result, passes[0].digests, "first pass")
        passes.append(result)
        del state
        gc.collect()  # free this pass's machines before the next set-up
        elapsed = perf_counter() - start
        if elapsed + (t1 - t0) + result.raw_wall > seconds:
            break

    op_times = [t for p in passes for t in p.op_times]
    op_wall = sum(p.wall for p in passes)
    sim = {key: sum(p.sim[key] for p in passes) for key in passes[0].sim}
    # The tail percentile follows from one pass, so it does not move with
    # the number of passes that fit in the run.
    p_tail = tail_percentile(workload.steps_per_pass * workload.ops_per_step)
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1e3 * percentile(op_times, 50.0) if op_times else 0.0,
        "op_tail_ms": 1e3 * percentile(op_times, p_tail) if op_times else 0.0,
        "sim_cycles_per_s": sim["cycles"] / op_wall,
        "llc_accesses_per_s": sim["llc"] / op_wall,
        "frames_per_s": sim["frames"] / op_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    speeds = [REFERENCE_S / d for d in clock.durations]
    notes = [
        f"passes: {len(passes)} x {workload.steps_per_pass} steps, "
        f"{len(setup_times)} set-ups",
        f"op_tail_ms is p{p_tail:.4g} of {len(op_times)} ops",
        f"host speed vs reference: median {statistics.median(speeds):.2f}, "
        f"range {min(speeds):.2f}-{max(speeds):.2f} over {len(speeds)} yardsticks; "
        f"unscaled wall {statistics.median(p.raw_wall for p in passes):.3f} s",
    ]
    return metrics, passes, notes


def measure_traced(workload, inputs, reference: list[str]):
    """The traced run: per-layer metrics over ``trace_steps`` steps."""
    clock = SpeedClock()
    state, _t0, _t1 = timed_setup(workload, inputs, clock)
    plain = run_steps(workload, state, inputs, workload.trace_steps, clock)
    compare(plain, reference, "reference")
    del state
    gc.collect()

    with SpanTracer() as tracer:
        state, t0, t1 = timed_setup(workload, inputs, clock)
        traced = run_steps(workload, state, inputs, workload.trace_steps, clock)
    compare(traced, plain.digests, "untraced replay")
    totals = counters(state)
    # Set-up plus steps: the intervals the spans can cover (yardsticks and
    # digesting between steps are outside both).
    raw_total = (t1 - t0) + traced.raw_wall

    calls, self_s, covered = tracer.summary()
    tallies, counts = tracer.tallies, tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, float] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_TIME:
        metrics[f"{name}.self_frac"] = ratio(self_s.get(name, 0.0), raw_total)
    scalar_cpu = calls.get("cache.cpu_access", 0)
    metrics.update(
        {
            "attack.fill_hit_frac": ratio(
                tallies["attack.fills"], calls.get("attack.clock_active", 0)
            ),
            "attack.chase_timeouts": tallies["attack.chase_timeouts"],
            "attack.sample.sweeps": tallies["attack.sample.sweeps"],
            "core.accesses_per_call": ratio(
                tallies["core.accesses"], calls.get("core.cpu_access_many", 0)
            ),
            "core.run_due.calls": counts["core.run_due"],
            "cache.batched_frac": max(0.0, 1.0 - ratio(scalar_cpu, totals["cpu"])),
            "cache.rekeys": totals["rekeys"],
            "cache.hit_rate": ratio(totals["cpu_hits"], totals["cpu"]),
            "nic.burst_frac": ratio(tallies["nic.burst_frames"], totals["frames"]),
            "nic.drops": totals["drops"],
            "net.frames_sent": totals["sent"],
            "perf.agent.calls": counts["perf.agent"],
            "other.self_frac": ratio(raw_total - covered, raw_total),
            "trace.wall_s": clock.scale(t0, t1) + traced.wall,
            "trace.overhead_ratio": ratio(traced.wall, plain.wall),
        }
    )
    top = max(SELF_TIME, key=lambda name: self_s.get(name, 0.0))
    inclusive = tracer.inclusive()
    notes = [
        f"traced {workload.trace_steps} steps: {tracer.n_spans} spans, "
        f"tracing overhead x{metrics['trace.overhead_ratio']:.2f}, "
        f"unattributed {metrics['other.self_frac']:.1%}",
        f"largest self time: {top} ({metrics[top + '.self_frac']:.1%})",
        "inclusive share of the traced wall: "
        + ", ".join(
            f"{name} {ratio(inclusive.get(name, 0.0), raw_total):.1%}"
            for name in ("attack.chase", "attack.clock_active", "attack.sequencer",
                         "perf.handle_request", "core.idle")
        ),
    ]
    return metrics, [plain, traced], notes


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this seed's digests in reference.json instead of measuring",
    )
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    from perfbench.workloads import WORKLOADS

    return WORKLOADS


def format_reference(data: dict) -> str:
    """reference.json with one line per workload and seed."""
    blocks = []
    for name in sorted(data):
        runs = sorted(data[name].items(), key=lambda item: int(item[0]))
        lines = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(d)}" for seed, d in runs)
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def record(workload, seed: int) -> None:
    inputs = workload.inputs(seed)
    clock = SpeedClock()
    state, _t0, _t1 = timed_setup(workload, inputs, clock)
    result = run_steps(workload, state, inputs, workload.steps_per_pass, clock)
    if result.failed_steps:
        raise SystemExit("\n".join(["perfbench: not recording a failing run"] + result.problems))
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.setdefault(workload.name, {})[str(seed)] = result.digests
    REFERENCE.write_text(format_reference(data))
    print(f"recorded {len(result.digests)} step digests for {workload.name} seed {seed}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    if args.record:
        record(workload, args.seed)
        return 0

    inputs = workload.inputs(args.seed)
    reference = load_reference(workload.name, args.seed)
    if args.trace:
        metrics, runs, notes = measure_traced(workload, inputs, reference)
        wanted = PER_LAYER
    else:
        metrics, runs, notes = measure(workload, inputs, args.seconds, reference)
        wanted = END_TO_END

    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failed_steps) for r in runs) * workload.ops_per_step
    problems = [p for r in runs for p in r.problems]
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems

    if reference:
        checked = f"yes, {len(reference)} step digests"
    else:
        checked = "no reference recorded for this seed"
        print(f"perfbench: {workload.name} seed {args.seed} has no reference "
              "digests; outputs are checked against invariants and the run's "
              "own passes only", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}, "
          f"checked against reference.json: {checked}")
    for note in notes:
        print(note)
    for line in workload.headline(runs[0].outputs):
        print(f"informational (model not validated at benchmark scale): {line}")
    print(f"op_fail_frac: {failed / max(1, attempted):.4f} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
