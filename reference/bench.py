"""Hot-path benchmarks and the regression gate (``scripts/bench_hotpath.py``).

Measures, on the bench-scale machine (256 monitored sets x 12 ways):

* ``probe_sweep_ms``      — one timed PRIME+PROBE sweep through the packed
  engine (one batched machine call per sweep);
* ``legacy_sweep_ms``     — the same timed sweep replayed per-line through
  the frozen :class:`~reference.cache.LegacySlicedLLC`, i.e. the
  pre-refactor cost of exactly the same accesses;
* ``rx_short_frames_per_s`` / ``legacy_rx_short_frames_per_s`` — the
  batched rx datapath (burst drains handing whole frame groups to one
  engine call) vs the frozen scalar one (:mod:`reference.nic` on
  :class:`~reference.cache.LegacySlicedLLC`), delivering the ``scan``
  workload's traffic in the short bursts every experiment makes;
  ``rx_*`` times an MTU-heavy frame mix through the event queue in long
  bursts, and ``rx_direct_*`` the per-frame ``nic.deliver`` path;
* ``machine_init_ms`` / ``legacy_llc_init_ms`` — LLC construction cost
  (the engine allocates three numpy arrays; the legacy model 16384 dicts);
* ``backend_overhead``    — the same batched probe sweep run under each
  randomized index backend (``keyed``, ``skewed``), reported as a ratio
  over the modulo sweep from the same run (informational, not gated:
  the keyed permutation rounds and skewed partition selection are real
  per-access work the modulo fast path legitimately skips);
* ``analysis_speedup``    — the columnar analysis pipeline (sequencer
  graph build + greedy walk, cyclic Levenshtein, batched correlation
  classification) vs the frozen scalar reference
  (:mod:`reference.analysis` / :mod:`reference.attack_analysis`),
  reported as a geometric mean of the three per-stage ratios;
* ``fig6_seconds``        — end-to-end ``repro run fig6`` (100 driver
  inits through the sharded runner, serial).

The headline numbers are ``sweep_speedup`` = legacy / engine sweep time,
``rx_short_speedup`` = legacy / batched short-burst rx time, and
``analysis_speedup`` as above: *ratios of two measurements from the same
run*, so they are comparable across machines and CI runners.  One reading
swings with host load, so each gated measurement runs
:data:`GATE_REPEATS` times, interleaved with the others, and the result
carries its median-ratio run (all readings under ``gate_readings``).
``--check BASELINE.json`` fails (exit 1) when a median ratio falls more
than ``--tolerance`` (default 20%) below the committed baseline's — i.e.
when a hot path got slower relative to its unchanging legacy reference.

Usage::

    python scripts/bench_hotpath.py --out BENCH_hotpath.json
    python scripts/bench_hotpath.py --check BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time

from repro.attack.evictionset import EvictionSet
from repro.attack.primeprobe import ProbeMonitor
from repro.attack.timing import LatencyThreshold
from reference.cache import LegacySlicedLLC
from repro.core.config import MachineConfig
from repro.core.machine import Machine
from reference.nic import install_legacy_nic

N_SETS = 256
HUGE_PAGES = 24

#: MTU-heavy rx benchmark mix (size, protocol) — mostly full frames on the
#: fragment/flip path, some copies and broadcast discards, like a loaded
#: receive queue during the paper's web-fingerprinting runs.
_RX_MIX_SEED = 7
_RX_SIZES = [1514, 1514, 1514, 1514, 1200, 1024, 512, 256, 128, 64]


def build_monitor(machine: Machine) -> ProbeMonitor:
    """Eviction sets covering ``N_SETS`` LLC sets at full associativity."""
    spy = machine.new_process("spy")
    base = spy.mmap_huge(HUGE_PAGES)
    llc = machine.llc
    hit = llc.timing.llc_hit_latency + llc.timing.measure_overhead
    miss = llc.timing.llc_miss_latency + llc.timing.measure_overhead
    threshold = LatencyThreshold(
        hit_mean=hit, miss_mean=miss, threshold=(hit + miss) / 2
    )
    ways = llc.geometry.ways
    page = 2 * 1024 * 1024
    by_set: dict[int, list[int]] = {}
    for off in range(0, HUGE_PAGES * page, llc.geometry.line_size):
        vaddr = base + off
        flat = llc.flat_set_of(spy.addrspace.translate(vaddr))
        by_set.setdefault(flat, []).append(vaddr)
    flats = [f for f, vs in by_set.items() if len(vs) >= ways][:N_SETS]
    if len(flats) < N_SETS:
        raise SystemExit(f"only {len(flats)} full sets found; raise HUGE_PAGES")
    sets = [
        EvictionSet(spy, by_set[f][:ways], threshold, set_index=f) for f in flats
    ]
    monitor = ProbeMonitor(spy, sets)
    monitor.prime()
    monitor.probe_once()  # settle into the steady all-hit state
    monitor.probe_once()
    return monitor


def bench_engine_sweeps(monitor: ProbeMonitor, rounds: int) -> float:
    """Milliseconds per timed whole-monitor sweep."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        monitor.probe_once()
    return (time.perf_counter() - t0) / rounds * 1e3


def bench_legacy_sweep(machine: Machine, monitor: ProbeMonitor, rounds: int) -> float:
    """The identical timed sweep, one Python call per line, legacy model."""
    llc = LegacySlicedLLC(
        geometry=machine.config.cache,
        ddio=machine.config.ddio,
        timing=machine.config.timing,
    )
    traversals = [es.probe_order().tolist() for es in monitor.sets]
    thresholds = [es.threshold for es in monitor.sets]
    for traversal in traversals:  # prime
        for paddr in traversal:
            llc.cpu_access(paddr)
    overhead = llc.timing.measure_overhead
    t0 = time.perf_counter()
    for _ in range(rounds):
        for traversal, threshold in zip(traversals, thresholds):
            misses = 0
            for paddr in traversal:
                _hit, latency = llc.cpu_access(paddr)
                if threshold.is_miss(latency + overhead):
                    misses += 1
            traversal.reverse()
    return (time.perf_counter() - t0) / rounds * 1e3


def bench_sweep(machine: Machine, monitor: ProbeMonitor, rounds: int) -> dict:
    """Engine vs legacy timed sweep over the same accesses."""
    n_accesses = sum(len(es) for es in monitor.sets)
    sweep_ms = bench_engine_sweeps(monitor, rounds)
    legacy_ms = bench_legacy_sweep(machine, monitor, rounds)
    return {
        "probe_sweep_ms": round(sweep_ms, 4),
        "probe_sweep_us_per_access": round(sweep_ms * 1e3 / n_accesses, 4),
        "legacy_sweep_ms": round(legacy_ms, 4),
        "sweep_speedup": round(legacy_ms / sweep_ms, 2),
    }


def _rx_frames(n_frames: int):
    """The deterministic benchmark frame mix (identical for both sides)."""
    from repro.net.packet import Frame

    rng = random.Random(_RX_MIX_SEED)
    frames = []
    for _ in range(n_frames):
        size = rng.choice(_RX_SIZES)
        proto = "broadcast" if rng.random() < 0.2 else "tcp"
        frames.append(Frame(size=size, protocol=proto))
    return frames


def _rx_machine(legacy: bool) -> Machine:
    """A bench-scale machine with the batched rx datapath, or with the
    frozen one: the frozen NIC on the frozen LLC, so that the
    denominator runs none of the cache code the ratio measures."""
    machine = Machine(MachineConfig().bench_scale())
    if legacy:
        config = machine.config
        machine.llc = LegacySlicedLLC(
            geometry=config.cache,
            ddio=config.ddio,
            timing=config.timing,
            traffic=machine.physmem.traffic,
        )
        install_legacy_nic(machine)
    else:
        machine.install_nic()
    return machine


def _bench_rx_direct(legacy: bool, n_frames: int) -> float:
    """Seconds to push ``n_frames`` straight through ``nic.deliver``."""
    machine = _rx_machine(legacy)
    deliver = machine.nic.deliver
    warmup = _rx_frames(n_frames // 10)
    for frame in warmup:
        deliver(frame)
    frames = _rx_frames(n_frames)
    t0 = time.perf_counter()
    for frame in frames:
        deliver(frame)
    return time.perf_counter() - t0


def _bench_rx_stream(legacy: bool, n_frames: int) -> float:
    """Seconds to deliver ``n_frames`` through the event queue (paced
    stream + idle loop), exercising burst drains on the batched side."""
    from repro.net.traffic import PatternStream

    machine = _rx_machine(legacy)
    sizes = [frame.size for frame in _rx_frames(n_frames)]
    source = PatternStream(sizes, rate_pps=1e6, protocol="tcp")
    t0 = time.perf_counter()
    source.attach(machine, machine.nic)
    machine.drain_events()
    elapsed = time.perf_counter() - t0
    if source.sent != n_frames:
        raise SystemExit(f"rx stream bench delivered {source.sent}/{n_frames}")
    return elapsed


def _bench_rx_short(legacy: bool, n_frames: int) -> float:
    """Seconds to deliver ``n_frames`` of the ``scan`` workload's traffic:
    64-B broadcasts at 200 kpps, drained through ``Machine.idle`` windows
    of one 8 kHz probe interval, so each burst holds ~25 frames (~50
    cache ops).  A tenth as many frames, untimed, warm the machine first,
    as in :func:`_bench_rx_direct`."""
    from repro.net.traffic import ConstantStream

    machine = _rx_machine(legacy)
    window = int(machine.clock.frequency_hz / 8000)

    def stream(count: int) -> None:
        source = ConstantStream(size=64, rate_pps=200_000.0, count=count)
        source.attach(machine, machine.nic)
        while source.sent < count:
            machine.idle(window)

    stream(n_frames // 10)
    t0 = time.perf_counter()
    stream(n_frames)
    return time.perf_counter() - t0


def bench_rx(n_frames: int) -> dict:
    """Batched-vs-legacy rx datapath throughput (frames per wall second).

    Each stream runs the full datapath both sides actually run — traffic
    source through the event queue into the NIC — which is where the
    cross-frame burst batching operates (a drained window hands
    ``Nic.deliver_burst`` whole frame groups).  The gated
    ``rx_short_speedup`` times bursts of ~25 frames (at most 50 cache
    ops), the length every experiment's bursts fall under.  The
    ``rx_*`` secondaries (not gated) time an MTU-heavy mix in long
    bursts (~2 000 cache ops).  The ``rx_direct_*`` secondaries push
    frames one at a time through ``nic.deliver``, isolating the
    per-frame path, a scalar loop like the frozen one, where cross-frame
    batching cannot apply.
    """
    legacy_direct_s = _bench_rx_direct(True, n_frames)
    batched_direct_s = _bench_rx_direct(False, n_frames)
    legacy_s = _bench_rx_stream(True, n_frames)
    batched_s = _bench_rx_stream(False, n_frames)
    legacy_short_s = _bench_rx_short(True, n_frames)
    batched_short_s = _bench_rx_short(False, n_frames)
    return {
        "rx_frames": n_frames,
        "rx_frames_per_s": round(n_frames / batched_s),
        "legacy_rx_frames_per_s": round(n_frames / legacy_s),
        "rx_speedup": round(legacy_s / batched_s, 2),
        "rx_short_frames_per_s": round(n_frames / batched_short_s),
        "legacy_rx_short_frames_per_s": round(n_frames / legacy_short_s),
        "rx_short_speedup": round(legacy_short_s / batched_short_s, 2),
        "rx_direct_frames_per_s": round(n_frames / batched_direct_s),
        "legacy_rx_direct_frames_per_s": round(n_frames / legacy_direct_s),
        "rx_direct_speedup": round(legacy_direct_s / batched_direct_s, 2),
    }


def _bench_backend_sweep(backend: str, rounds: int, n_lines: int = 4096) -> float:
    """Milliseconds per batched ``access_many`` sweep under ``backend``.

    The sweep touches ``n_lines`` distinct lines.  Once they are resident
    a sweep decomposes nothing; under an epochal backend it also pays
    each re-key and the misses of the lines a re-key drops — the same
    cost profile the attack loops see.
    """
    import numpy as np

    from repro.cache.llc import SlicedLLC

    config = MachineConfig().bench_scale()
    llc = SlicedLLC(
        geometry=config.cache,
        ddio=config.ddio,
        timing=config.timing,
        backend=backend,
        seed=1,
    )
    paddrs = (
        np.arange(n_lines, dtype=np.int64) << config.cache.offset_bits
    )
    llc.access_many(paddrs)  # warm: the one sweep that misses and fills
    t0 = time.perf_counter()
    for _ in range(rounds):
        llc.access_many(paddrs)
    return (time.perf_counter() - t0) / rounds * 1e3


def bench_backend_overhead(rounds: int) -> dict:
    """Per-backend batched sweep cost relative to the modulo baseline."""
    modulo_ms = _bench_backend_sweep("modulo", rounds)
    keyed_ms = _bench_backend_sweep("keyed:epoch=0", rounds)
    rekey_ms = _bench_backend_sweep("keyed:epoch=100000", rounds)
    skewed_ms = _bench_backend_sweep("skewed:partitions=2", rounds)
    return {
        "backend_overhead": {
            "modulo_sweep_ms": round(modulo_ms, 4),
            "keyed_sweep_ms": round(keyed_ms, 4),
            "keyed_rekeying_sweep_ms": round(rekey_ms, 4),
            "skewed_sweep_ms": round(skewed_ms, 4),
            "keyed_ratio": round(keyed_ms / modulo_ms, 2),
            "keyed_rekeying_ratio": round(rekey_ms / modulo_ms, 2),
            "skewed_ratio": round(skewed_ms / modulo_ms, 2),
        }
    }


def _bench_pair(fn, legacy_fn, rounds: int) -> tuple[float, float]:
    """(vectorised_ms, legacy_ms) per call, same inputs both sides."""
    fn()  # warm (numpy one-time init, allocator)
    legacy_fn()
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    vec_ms = (time.perf_counter() - t0) / rounds * 1e3
    t0 = time.perf_counter()
    for _ in range(rounds):
        legacy_fn()
    leg_ms = (time.perf_counter() - t0) / rounds * 1e3
    return vec_ms, leg_ms


def bench_analysis(rounds: int) -> dict:
    """Columnar analysis pipeline vs the frozen scalar reference.

    Three stages, each on synthetic inputs shaped like the real attack's
    (bit-identical outputs are pinned separately in
    ``tests/test_analysis_equivalence.py``; this only times them):

    * sequencer — successor-graph build + greedy walk over a 4000x32
      sample matrix (``transition_graph``/``greedy_sequence`` vs
      ``legacy_build_graph``/``legacy_make_sequence``);
    * levenshtein — ``cyclic_levenshtein`` between two 256-symbol rings
      (NumPy rolling-row DP vs the frozen scalar table);
    * correlation — classifier scoring of 100 captured traces against 5
      site representatives (one score matrix vs a per-trace scalar loop).

    ``analysis_speedup`` is the geometric mean of the three legacy/new
    ratios, gated in CI like ``sweep_speedup``/``rx_short_speedup``.
    """
    import numpy as np

    from repro.analysis.correlation import CorrelationClassifier
    from reference.analysis import (
        CorrelationClassifier as LegacyClassifier,
    )
    from reference.analysis import cyclic_levenshtein as legacy_cyclic
    from repro.analysis.levenshtein import cyclic_levenshtein
    from reference.attack_analysis import (
        legacy_build_graph,
        legacy_make_sequence,
    )
    from repro.attack.sequencer import (
        Sequencer,
        greedy_sequence,
        transition_graph,
    )

    rng = random.Random(11)
    rounds = max(rounds // 5, 3)  # each analysis round is heavier than a sweep

    # -- sequencer ----------------------------------------------------
    n_samples, n_sets = 4000, 32
    matrix = np.zeros((n_samples, n_sets), dtype=np.int64)
    pos = 0
    for i in range(n_samples):  # a noisy ring walk, like a real scan
        if rng.random() < 0.8:
            pos = (pos + 1) % n_sets
        matrix[i, pos] = 2
        if rng.random() < 0.1:
            matrix[i, rng.randrange(n_sets)] = 2
    samples_list = [list(map(int, row)) for row in matrix]

    def _seq():
        graph = transition_graph(matrix, miss_threshold=1)
        root = Sequencer._get_root(graph)
        return greedy_sequence(graph, root, 8 * n_sets, weight_cutoff=2)

    def _seq_legacy():
        graph = legacy_build_graph(samples_list, miss_threshold=1)
        return legacy_make_sequence(graph, n_sets, weight_cutoff=2)

    seq_ms, seq_legacy_ms = _bench_pair(_seq, _seq_legacy, rounds)

    # -- levenshtein --------------------------------------------------
    ring = [rng.randrange(256) for _ in range(256)]
    recovered = ring[37:] + ring[:37]
    for i in range(0, len(recovered), 9):  # sprinkle edit errors
        recovered[i] = rng.randrange(256)

    lev_ms, lev_legacy_ms = _bench_pair(
        lambda: cyclic_levenshtein(recovered, ring),
        lambda: legacy_cyclic(recovered, ring),
        rounds,
    )

    # -- correlation classifier --------------------------------------
    trace_length, n_sites, n_trials = 100, 5, 100
    reps = {
        f"site{s}": [float(rng.randrange(1, 5)) for _ in range(trace_length)]
        for s in range(n_sites)
    }
    traces = [
        [rng.randrange(1, 5) for _ in range(trace_length)] for _ in range(n_trials)
    ]
    clf = CorrelationClassifier(trace_length=trace_length, max_lag=8)
    clf.representatives = dict(reps)
    legacy_clf = LegacyClassifier(trace_length=trace_length, max_lag=8)
    legacy_clf.representatives = dict(reps)

    corr_ms, corr_legacy_ms = _bench_pair(
        lambda: clf.classify_many(traces),
        lambda: [legacy_clf.classify(t) for t in traces],
        rounds,
    )

    ratios = [
        seq_legacy_ms / seq_ms,
        lev_legacy_ms / lev_ms,
        corr_legacy_ms / corr_ms,
    ]
    geomean = float(np.exp(np.mean(np.log(ratios))))
    return {
        "analysis": {
            "sequencer_ms": round(seq_ms, 4),
            "legacy_sequencer_ms": round(seq_legacy_ms, 4),
            "sequencer_speedup": round(ratios[0], 2),
            "levenshtein_ms": round(lev_ms, 4),
            "legacy_levenshtein_ms": round(lev_legacy_ms, 4),
            "levenshtein_speedup": round(ratios[1], 2),
            "correlation_ms": round(corr_ms, 4),
            "legacy_correlation_ms": round(corr_legacy_ms, 4),
            "correlation_speedup": round(ratios[2], 2),
        },
        "analysis_speedup": round(geomean, 2),
    }


def bench_init(config: MachineConfig, rounds: int = 3) -> tuple[float, float]:
    t0 = time.perf_counter()
    for _ in range(rounds):
        Machine(config)
    machine_ms = (time.perf_counter() - t0) / rounds * 1e3
    t0 = time.perf_counter()
    for _ in range(rounds):
        LegacySlicedLLC(geometry=config.cache, ddio=config.ddio, timing=config.timing)
    legacy_ms = (time.perf_counter() - t0) / rounds * 1e3
    return machine_ms, legacy_ms


def bench_fig6() -> float:
    from repro.experiments.mapping import run_fig6

    t0 = time.perf_counter()
    run_fig6(instances=100, config=MachineConfig().bench_scale())
    return time.perf_counter() - t0


#: Interleaved readings per gated ratio; the gate reads their median.
GATE_REPEATS = 3


def run_benchmarks(rounds: int, skip_fig6: bool, rx_frames: int = 4000) -> dict:
    config = MachineConfig().bench_scale()
    machine = Machine(config)
    monitor = build_monitor(machine)
    measures = {
        "sweep_speedup": lambda: bench_sweep(machine, monitor, rounds),
        "rx_short_speedup": lambda: bench_rx(rx_frames),
        "analysis_speedup": lambda: bench_analysis(rounds),
    }
    readings: dict[str, list[dict]] = {key: [] for key in measures}
    for _ in range(GATE_REPEATS):
        for key, measure in measures.items():
            readings[key].append(measure())
    machine_init_ms, legacy_llc_init_ms = bench_init(config)
    result = {
        "bench": "probe-sweep + rx datapath hot paths (engine vs legacy)",
        "geometry": {
            "monitored_sets": len(monitor.sets),
            "ways": machine.llc.geometry.ways,
            "accesses_per_sweep": sum(len(es) for es in monitor.sets),
        },
        "rounds": rounds,
        "machine_init_ms": round(machine_init_ms, 2),
        "legacy_llc_init_ms": round(legacy_llc_init_ms, 2),
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "gate_readings": {
            key: [run[key] for run in runs] for key, runs in readings.items()
        },
    }
    for key, runs in readings.items():
        # The median-ratio run, whole: its absolute numbers give its ratio.
        result.update(sorted(runs, key=lambda run: run[key])[GATE_REPEATS // 2])
    result.update(bench_backend_overhead(rounds))
    if not skip_fig6:
        result["fig6_seconds"] = round(bench_fig6(), 2)
    return result


#: Ratio metrics gated by ``--check``: each must stay within tolerance of
#: the committed baseline (ratios transfer across runners; absolutes don't).
GATED_RATIOS = ("sweep_speedup", "rx_short_speedup", "analysis_speedup")


def check_against(result: dict, baseline: dict, tolerance: float) -> int:
    """Gate current ratio metrics against a committed baseline; 0 = pass."""
    status = 0
    for key in GATED_RATIOS:
        current = result[key]
        committed = baseline.get(key)
        if committed is None:
            print(f"regression gate: {key} absent from baseline, skipped")
            continue
        floor = committed * (1.0 - tolerance)
        print(
            f"regression gate: {key} {current:.2f} (median) vs committed "
            f"{committed:.2f} (floor {floor:.2f})"
        )
        if current < floor:
            print(
                f"FAIL: {key} regressed by more than the tolerance",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("OK")
    return status


#: Result keys copied into a bench ledger record's headline (the gated
#: ratios plus the absolute numbers they are built from).
BENCH_HEADLINE_KEYS = (
    "sweep_speedup",
    "rx_speedup",
    "rx_short_speedup",
    "analysis_speedup",
    "probe_sweep_ms",
    "legacy_sweep_ms",
    "rx_frames_per_s",
    "machine_init_ms",
    "fig6_seconds",
)


def bench_ledger_record(result: dict):
    """A ``kind='bench'`` ledger record for one benchmark run."""
    from repro.telemetry.ledger import LedgerRecord

    headline = {
        key: float(result[key]) for key in BENCH_HEADLINE_KEYS if key in result
    }
    return LedgerRecord(
        experiment="bench-hotpath",
        kind="bench",
        timestamp=time.time(),
        jobs=1,
        trials=result.get("rounds", 0),
        headline=headline,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_hotpath.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--out", help="write results to this JSON file")
    parser.add_argument(
        "--check", help="compare against a committed baseline JSON; exit 1 on regression"
    )
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument(
        "--rx-frames", type=int, default=4000, help="frames per rx benchmark side"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative drop in a gated ratio vs the baseline",
    )
    parser.add_argument(
        "--skip-fig6", action="store_true", help="skip the end-to-end fig6 timing"
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        help="append this run to DIR/ledger.jsonl as a kind='bench' record "
        "(shown by 'repro report bench-hotpath')",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        help="append this run's ledger record to a standalone JSONL history "
        "file (e.g. a CI BENCH_history.jsonl artifact)",
    )
    args = parser.parse_args(argv)

    result = run_benchmarks(args.rounds, args.skip_fig6, rx_frames=args.rx_frames)
    print(json.dumps(result, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.ledger or args.history:
        from repro.telemetry.ledger import RunLedger

        record = bench_ledger_record(result)
        if args.ledger:
            RunLedger(args.ledger).append(record)
            print(f"appended bench record to {args.ledger}/ledger.jsonl")
        if args.history:
            import os
            from pathlib import Path

            history = RunLedger(os.path.dirname(args.history) or ".")
            history.path = Path(args.history)
            history.append(record)
            print(f"appended bench record to {args.history}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        return check_against(result, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
