"""Command-line entry point: regenerate any experiment from the shell.

Usage::

    python -m repro list                # available experiments
    python -m repro fig7                # run one, print the paper-style rows
    python -m repro fig6 --jobs 4       # shard the trial fan-out over 4 procs
    python -m repro all --jobs 8        # everything, parallel, cached
    python -m repro all --force         # ignore cached results and re-run
    python -m repro table1 --paper-scale
    python -m repro run randomized-cache        # 'run' alias for a name
    python -m repro backends list               # cache index backends
    python -m repro fig10 --backend keyed:epoch=50000
    python -m repro report fig6         # signal-quality dashboard from the
                                        # run ledger (repro.telemetry.report)

Each experiment runs at the scaled machine size by default (seconds to a
couple of minutes); ``--paper-scale`` switches to the paper's full set
structure where the harness supports it.

Orchestration is handled by :mod:`repro.runner`: Monte Carlo experiments
shard their trials over ``--jobs`` worker processes with seeds derived
from ``--seed`` (bit-identical results for any job count), and every
result is cached under ``.repro-cache/`` keyed by (experiment, machine
config, parameters, seed) — a warm rerun of ``all`` executes nothing.
``python -m repro all`` exits non-zero if any experiment failed and prints
a per-experiment summary table either way.

Observability (see OBSERVABILITY.md)::

    python -m repro trace fig6            # run traced, write fig6.trace.json
    python -m repro fig7 --trace t.json   # Chrome trace -> Perfetto
    python -m repro table1 --metrics m.json

``--trace``/``--metrics`` install a :mod:`repro.telemetry` session for the
run; traced runs force re-execution (a cache hit records nothing) and the
trace/metrics files are written next to the printed summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.cache.backends import backend_infos, parse_backend_spec
from repro.core.config import MachineConfig
from repro.faults import FAULT_PROFILES, FAULT_SCHEDULES, parse_fault_spec
from repro.runner import (
    ConsoleProgress,
    ExperimentRunner,
    ResultCache,
    ShardCrashError,
    ShardFailedError,
    ShardTimeoutError,
)
from repro.runner.cache import DEFAULT_CACHE_DIR
from repro.telemetry import RunLedger, Telemetry, session
from repro import experiments as exp

# Exit codes (see ROBUSTNESS.md): distinct failure modes get distinct
# codes so CI and scripts can branch on *why* a run failed.
EXIT_OK = 0
EXIT_FAILURE = 1  # generic/mixed failure ('all' with heterogeneous causes)
EXIT_USAGE = 2
EXIT_TIMEOUT = 3  # a shard exceeded --shard-timeout on every attempt
EXIT_CRASH = 4  # a worker died repeatedly (segfault/OOM-kill)
EXIT_BAD_RESULT = 5  # a shard raised / produced an unusable result
EXIT_PARTIAL = 6  # completed with <= --max-failed-shards failed shards


@dataclass(frozen=True)
class ExperimentDef:
    """One runnable experiment: how to invoke it and how to cache it.

    ``run`` is called as ``run(config=..., **params)``, plus ``runner=``
    when ``sharded``.  Sharded experiments thread the runner through to
    their trial loop and cache per phase internally; the rest have no
    trial fan-out, so the CLI wraps them in
    :meth:`ExperimentRunner.run_cached` keyed by ``params`` — either way a
    warm ``all`` rerun executes nothing.
    """

    description: str
    params: dict
    run: Callable[..., Any]
    sharded: bool = False


EXPERIMENTS: dict[str, ExperimentDef] = {
    "fig5": ExperimentDef(
        "buffer-to-set mapping, one driver init", params={}, run=exp.run_fig5
    ),
    "fig6": ExperimentDef(
        "buffers-per-set histogram over many inits",
        params={"instances": 100},
        run=exp.run_fig6,
        sharded=True,
    ),
    "fig7": ExperimentDef(
        "page-aligned footprint: idle vs receiving",
        params={"n_samples": 250, "huge_pages": 4},
        run=exp.run_fig7,
    ),
    "fig8": ExperimentDef(
        "cache footprint vs packet size",
        params={"n_samples": 100, "huge_pages": 4, "n_buffers": 6},
        run=exp.run_fig8,
    ),
    "table1": ExperimentDef(
        "ring sequence recovery (Algorithm 1)",
        params={
            "n_monitored": 16,
            "n_samples": 4000,
            "packet_rate": 15_000,
            "probe_rate_hz": 16_000,
            "huge_pages": 4,
        },
        run=exp.run_table1,
    ),
    "fig10": ExperimentDef(
        "covert decode of the '201' pattern",
        params={"n_symbols": 24, "huge_pages": 4},
        run=exp.run_fig10,
    ),
    "fig11": ExperimentDef(
        "covert capacity: binary/ternary x probe rate",
        params={"n_symbols": 50, "huge_pages": 4},
        run=exp.run_fig11,
        sharded=True,
    ),
    "fig12ab": ExperimentDef(
        "multi-buffer covert capacity",
        params={"buffer_counts": (1, 2, 4, 8), "n_symbols": 48, "huge_pages": 4},
        run=exp.run_fig12_multibuffer,
        sharded=True,
    ),
    "fig12cd": ExperimentDef(
        "full chasing channel vs send rate",
        params={"n_symbols": 150, "huge_pages": 4},
        run=exp.run_fig12_chase,
        sharded=True,
    ),
    "fig13": ExperimentDef(
        "login success/failure trace recovery",
        params={"huge_pages": 4, "trace_length": 80},
        run=exp.run_fig13_login,
    ),
    "accuracy": ExperimentDef(
        "website fingerprinting accuracy, DDIO on/off",
        params={
            "train_loads": 3,
            "trials_per_site": 4,
            "huge_pages": 4,
            "trace_length": 80,
        },
        run=exp.run_fingerprint_accuracy,
        sharded=True,
    ),
    "fig14": ExperimentDef(
        "Nginx throughput: DDIO vs adaptive partitioning",
        params={"n_requests": 500},
        run=exp.run_fig14,
    ),
    "fig15": ExperimentDef(
        "memory traffic + miss rate per cache variant",
        params={"copy_kb": 512, "tcp_packets": 1000, "nginx_requests": 300},
        run=exp.run_fig15,
    ),
    "fig16": ExperimentDef(
        "tail latency per defense scheme",
        params={"n_requests": 2000},
        run=exp.run_fig16,
    ),
    "ablation-ring": ExperimentDef(
        "ring size as a mitigation",
        params={},
        run=exp.run_ring_size_ablation,
        sharded=True,
    ),
    "ablation-interval": ExperimentDef(
        "partial randomization interval vs chase quality",
        params={},
        run=exp.run_randomization_interval_ablation,
        sharded=True,
    ),
    "ablation-ddio-ways": ExperimentDef(
        "DDIO allocation limit vs covert error",
        params={},
        run=exp.run_ddio_ways_ablation,
        sharded=True,
    ),
    "ablation-probe-rate": ExperimentDef(
        "probe rate vs sequence recovery error",
        params={},
        run=exp.run_probe_rate_ablation,
        sharded=True,
    ),
    "ablation-noise": ExperimentDef(
        "fault-injection intensity vs covert bit recovery",
        params={},
        run=exp.run_noise_ablation,
        sharded=True,
    ),
    "drift-resilience": ExperimentDef(
        "adaptive recovery vs time-varying fault schedules",
        params={},
        run=exp.run_drift_resilience,
        sharded=True,
    ),
    "randomized-cache": ExperimentDef(
        "randomized-index backends vs the full attack pipeline",
        params={"n_samples": 600, "n_symbols": 24, "huge_pages": 8},
        run=exp.run_randomized_cache,
        sharded=True,
    ),
}


@dataclass
class ExperimentOutcome:
    """What happened to one experiment in this invocation."""

    name: str
    ok: bool
    wall_seconds: float
    error: str = ""
    cached: bool = False
    phases: str = ""
    #: EXIT_* code this outcome maps to (EXIT_OK / EXIT_PARTIAL when ok).
    exit_code: int = EXIT_OK
    #: One-line cause for the summary table (empty on clean success).
    cause: str = ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Packet Chasing (ISCA 2020) reproduction experiments",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', 'all', 'run' (alias: run TARGET), "
        "'trace' (traced run of TARGET), 'faults' (with 'list': show fault "
        "profiles), or 'backends' (with 'list': show cache index backends)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment to run/trace (with 'run'/'trace') or subcommand "
        "(with 'faults'/'backends')",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full set structure (much slower)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sharded experiments (default 1; results "
        "are identical for any value)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="root seed for trial derivation and the machine config "
        "(default: the config's built-in seed)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-run even if a cached result exists (and overwrite it)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache location (default {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--faults",
        default="off",
        metavar="PROFILE[@SCALE]",
        help="fault-injection profile, optionally scaled: 'moderate', "
        "'drift@1.5', ... (see 'repro faults list'; default 'off' — outputs "
        "are then bit-identical to a build without fault hooks)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="attach the adaptive attack supervisor (online threshold "
        "recalibration + eviction-set self-healing) to experiments that "
        "support it; see ROBUSTNESS.md 'Adaptive recovery'",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="cache index backend for the machine, as 'name[:k=v,...]' — see "
        "'repro backends list' (default: the config's 'modulo', the "
        "conventional bit-identical mapping)",
    )
    parser.add_argument(
        "--max-failed-shards",
        type=int,
        default=0,
        metavar="N",
        help="tolerate up to N terminally failed shards per experiment: the "
        "run completes with partial results and exit code 6 (default 0: "
        "any failure aborts)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort on the first terminal shard failure even when "
        "--max-failed-shards would tolerate it",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="persist per-shard results as they complete and resume an "
        "interrupted run from them (needs the cache; ignored with "
        "--no-cache or under --trace/--metrics)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="kill and retry a shard that runs longer than SEC seconds "
        "(parallel runs only; default: no timeout)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the ledger (.repro-cache/ledger.jsonl, "
        "read by 'repro report'); implied by --no-cache",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a Chrome trace_event JSON to PATH (open in Perfetto); "
        "forces re-execution",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a JSON metrics snapshot (counters, latency histograms, "
        "runner phase timings) to PATH; forces re-execution",
    )
    return parser


def build_runner(args: argparse.Namespace) -> ExperimentRunner:
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.max_failed_shards < 0:
        raise SystemExit("--max-failed-shards must be >= 0")
    ledger = None
    if not args.no_cache and not getattr(args, "no_ledger", False):
        ledger = RunLedger(args.cache_dir)
    return ExperimentRunner(
        jobs=args.jobs,
        root_seed=args.seed,
        cache=ResultCache(args.cache_dir),
        use_cache=not args.no_cache,
        force=args.force,
        progress=ConsoleProgress(),
        shard_timeout=args.shard_timeout,
        max_failed_shards=args.max_failed_shards,
        fail_fast=args.fail_fast,
        checkpoint=args.checkpoint,
        ledger=ledger,
    )


def print_backends() -> None:
    """The ``repro backends list`` table: registered index backends."""
    infos = backend_infos()
    width = max(len("backend"), max(len(info.name) for info in infos))
    pwidth = max(len(info.params) for info in infos)
    print(f"  {'backend':{width}s}  {'params':{pwidth}s}  description")
    for info in infos:
        print(f"  {info.name:{width}s}  {info.params:{pwidth}s}  {info.summary}")


def print_fault_profiles() -> None:
    """The ``repro faults list`` tables: profiles, then time schedules."""
    width = max(len(name) for name in FAULT_PROFILES)
    print(f"  {'profile':{width}s}  drop   dup    reord  jitter ovflw  stall  corun(Hz) probe-jit schedule")
    for name, profile in FAULT_PROFILES.items():
        print(
            f"  {name:{width}s}  {profile.drop_prob:<6.3f} {profile.dup_prob:<6.3f} "
            f"{profile.reorder_prob:<6.3f} {profile.gap_jitter:<6.2f} "
            f"{profile.nic_overflow_prob:<6.3f} {profile.refill_stall_prob:<6.3f} "
            f"{profile.corunner_rate_hz:<9.0f} {profile.probe_jitter_cycles:<9d} "
            f"{profile.schedule or '-'}"
        )
    print()
    swidth = max(len("schedule"), max(len(name) for name in FAULT_SCHEDULES))
    print(f"  {'schedule':{swidth}s}  {'mode':5s}  {'max':>4s}  description")
    for name, sched in FAULT_SCHEDULES.items():
        print(
            f"  {name:{swidth}s}  {sched.mode:5s}  {sched.max_scale():4.1f}"
            f"  {sched.summary}"
        )
    print()
    print("  any profile accepts an intensity multiplier: --faults PROFILE@SCALE")


def run_one(
    name: str, config: MachineConfig, runner: ExperimentRunner
) -> ExperimentOutcome:
    definition = EXPERIMENTS[name]
    print(f"== {name}: {definition.description}")
    start = time.time()
    history_start = len(runner.history)
    try:
        if definition.sharded:
            result = definition.run(config=config, runner=runner, **definition.params)
        else:
            result = runner.run_cached(
                name,
                config,
                definition.params,
                lambda: definition.run(config=config, **definition.params),
            )
    except Exception as error:
        wall = time.time() - start
        print(f"   FAILED after {wall:.1f}s:", file=sys.stderr)
        traceback.print_exc()
        if isinstance(error, ShardTimeoutError):
            exit_code, kind = EXIT_TIMEOUT, "timeout"
        elif isinstance(error, ShardCrashError):
            exit_code, kind = EXIT_CRASH, "crash"
        elif isinstance(error, ShardFailedError):
            exit_code, kind = EXIT_BAD_RESULT, "bad-result"
        else:
            exit_code, kind = EXIT_FAILURE, "failed"
        cause = str(error).strip().splitlines()
        return ExperimentOutcome(
            name=name,
            ok=False,
            wall_seconds=wall,
            error=traceback.format_exc(limit=1).strip().splitlines()[-1],
            exit_code=exit_code,
            cause=f"{kind}: {cause[0] if cause else type(error).__name__}",
        )
    wall = time.time() - start
    for row in result.format_rows():
        print(row)
    print(f"   ({wall:.1f}s wall)\n")
    outcome = ExperimentOutcome(name=name, ok=True, wall_seconds=wall)
    run_history = runner.history[history_start:]
    failed = [f for m in run_history for f in m.failed_shards]
    if failed:
        outcome.exit_code = EXIT_PARTIAL
        outcome.cause = "partial: " + ", ".join(
            f"shard {f['index']} {f['kind']}" for f in failed
        )
    history = [m for m in runner.history if m.experiment == name]
    if history:
        outcome.cached = all(m.cache_hit for m in history)
        phase_totals: dict[str, float] = {}
        for m in history:
            for phase, seconds in m.phase_seconds.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        outcome.phases = " ".join(
            f"{phase}={seconds:.1f}s" for phase, seconds in phase_totals.items()
        )
    return outcome


def print_summary(outcomes: list[ExperimentOutcome]) -> None:
    width = max(len(outcome.name) for outcome in outcomes)
    print("== summary ==")
    print(
        f"  {'experiment':{width}s}  {'status':7s}  {'wall':>7s}  {'cache':5s}"
        "  phases / cause"
    )
    for outcome in outcomes:
        if not outcome.ok:
            status = "FAILED"
        elif outcome.exit_code == EXIT_PARTIAL:
            status = "PARTIAL"
        else:
            status = "ok"
        cache = "hit" if outcome.cached else "-"
        detail = outcome.cause if outcome.cause else outcome.phases
        print(
            f"  {outcome.name:{width}s}  {status:7s}  {outcome.wall_seconds:6.1f}s"
            f"  {cache:5s}  {detail}"
            + (f"  {outcome.error}" if outcome.error else "")
        )
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    total_wall = sum(outcome.wall_seconds for outcome in outcomes)
    print(
        f"  {len(outcomes) - failed}/{len(outcomes)} experiments ok, "
        f"{total_wall:.1f}s total"
    )


def aggregate_exit_code(outcomes: list[ExperimentOutcome]) -> int:
    """Fold per-experiment exit codes into one process exit code.

    A single distinct failure cause keeps its specific code; mixed causes
    collapse to the generic :data:`EXIT_FAILURE`.  Partial completions
    surface as :data:`EXIT_PARTIAL` only when nothing failed outright.
    """
    failures = {o.exit_code for o in outcomes if not o.ok}
    if failures:
        return failures.pop() if len(failures) == 1 else EXIT_FAILURE
    partials = {o.exit_code for o in outcomes if o.exit_code != EXIT_OK}
    if partials:
        return EXIT_PARTIAL
    return EXIT_OK


def _write_telemetry(
    telemetry: Telemetry, args: argparse.Namespace, runner: ExperimentRunner
) -> None:
    """Export the session's trace / metrics files and say where they went."""
    if args.trace:
        n_events = telemetry.tracer.write_chrome(args.trace)
        dropped = telemetry.tracer.dropped
        note = f" ({dropped} dropped)" if dropped else ""
        print(
            f"[telemetry] wrote {n_events} trace event(s){note} to {args.trace} "
            "— open at https://ui.perfetto.dev"
        )
    if args.metrics:
        payload = {
            "metrics": telemetry.metrics.snapshot(),
            "runner": [
                {
                    "experiment": m.experiment,
                    "wall_seconds": m.wall_seconds,
                    "phase_seconds": m.phase_seconds,
                    "shards": m.shards_done,
                    "trials": m.trials_done,
                    "retries": m.retries,
                    "cache_hit": m.cache_hit,
                    "jobs": m.jobs,
                    "worker_utilization": m.worker_utilization,
                    "shards_resumed": m.shards_resumed,
                    "failed_shards": m.failed_shards,
                }
                for m in runner.history
            ],
            "cache": runner.cache.stats.to_dict(),
        }
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"[telemetry] wrote metrics snapshot to {args.metrics}")
        histograms = payload["metrics"].get("histograms", {})
        if histograms:
            width = max(len(name) for name in histograms)
            print(f"[telemetry] {'histogram':{width}s}  {'count':>8s}"
                  f"  {'p50':>10s}  {'p95':>10s}  {'p99':>10s}")
            for name in sorted(histograms):
                snap = histograms[name]
                pct = snap.get("percentiles", {})
                print(
                    f"[telemetry] {name:{width}s}  {snap.get('count', 0):8d}"
                    f"  {pct.get('p50', 0.0):10.2f}"
                    f"  {pct.get('p95', 0.0):10.2f}"
                    f"  {pct.get('p99', 0.0):10.2f}"
                )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        # `repro report [exp]` has its own option surface: it reads the run
        # ledger and renders the signal-quality dashboard (see
        # repro.telemetry.report).  Dispatch before experiment parsing so
        # its flags do not collide with experiment flags.
        from repro.telemetry.report import report_main

        return report_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "run":
        if args.target is None:
            print("usage: repro run <experiment>", file=sys.stderr)
            return EXIT_USAGE
        args.experiment = args.target
        args.target = None
    if args.experiment == "trace":
        if args.target is None:
            raise SystemExit("usage: repro trace <experiment> [--trace PATH]")
        args.experiment = args.target
        args.target = None
        if args.trace is None:
            args.trace = f"{args.experiment}.trace.json"
    if args.experiment == "faults":
        if args.target != "list":
            print("usage: repro faults list", file=sys.stderr)
            return EXIT_USAGE
        print_fault_profiles()
        return EXIT_OK
    if args.experiment == "backends":
        if args.target != "list":
            print("usage: repro backends list", file=sys.stderr)
            return EXIT_USAGE
        print_backends()
        return EXIT_OK
    if args.target is not None:
        raise SystemExit(f"unexpected extra argument {args.target!r}")
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, definition in EXPERIMENTS.items():
            print(f"  {name:{width}s}  {definition.description}")
        return EXIT_OK
    config = (
        MachineConfig().bench_scale()
        if args.paper_scale
        else MachineConfig().scaled_down()
    )
    if args.seed is not None:
        if args.seed < 0:
            raise SystemExit("--seed must be non-negative")
        config = replace(config, seed=args.seed)
    if args.faults != "off":
        try:
            config = replace(config, faults=parse_fault_spec(args.faults))
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return EXIT_USAGE
    if args.adaptive:
        config = replace(config, adaptive=True)
    if args.backend is not None:
        try:
            parse_backend_spec(args.backend)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return EXIT_USAGE
        config = replace(config, cache_backend=args.backend)
    telemetry = None
    if args.trace or args.metrics:
        telemetry = Telemetry.create(
            trace=args.trace is not None, metrics=args.metrics is not None
        )
        # A cache hit executes nothing, so a traced/metered run would record
        # nothing; force re-execution (results are still stored back).
        args.force = True
    runner = build_runner(args)

    def execute() -> int:
        if args.experiment == "all":
            outcomes = [run_one(name, config, runner) for name in EXPERIMENTS]
            print_summary(outcomes)
            return aggregate_exit_code(outcomes)
        if args.experiment not in EXPERIMENTS:
            print(f"unknown experiment {args.experiment!r}; try 'list'", file=sys.stderr)
            return EXIT_USAGE
        outcome = run_one(args.experiment, config, runner)
        if outcome.cause:
            print_summary([outcome])
        return outcome.exit_code

    if telemetry is None:
        return execute()
    with session(telemetry):
        status = execute()
    _write_telemetry(telemetry, args, runner)
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
