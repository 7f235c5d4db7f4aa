"""Randomized-index cache backends vs the full Packet Chasing pipeline.

The defense evaluation of Figs. 14-16 measures *performance* cost; this
experiment measures *security* benefit, for the two randomized-index cache
designs modelled in :mod:`repro.cache.backends` — a CEASER-shaped keyed
index with epoch re-keying (``keyed``) and a ScatterCache-shaped skewed
index (``skewed``) — next to the paper's own software defenses (adaptive
DDIO partitioning, partial ring randomization) on the modulo baseline.

Every variant runs the same four attack legs end to end:

* **build** — timing-only eviction-set construction for one page-aligned
  set index (:meth:`EvictionSetBuilder.cluster_index_report`).  Under a
  randomized index the huge-page set-index bits stop predicting placement,
  so group-testing degrades gracefully to a low-confidence report instead
  of a monitor list — the cost/benefit the CEASER/ScatterCache papers
  argue for.
* **sequence** — Table-I-style ring-order recovery with oracle-placed
  monitors (placement via the live mapping, so the leg isolates *channel*
  degradation: epoch re-keys moving the ring mid-run, skewed placement
  splitting a buffer across partitions).
* **covert** — Fig.10/11-style binary covert channel bandwidth and error.
* **fingerprint** — a reduced Section-V closed-world accuracy run (the
  classifier sees whatever the degraded channel still leaks).

Expected shape (EXPERIMENTS.md records measured numbers): modulo
reproduces the attack; ``keyed`` preserves it *within* an epoch but decays
with re-key rate; ``skewed`` degrades construction hardest; the software
defenses sit between, degrading sequence knowledge but not placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.analysis.levenshtein import cyclic_levenshtein
from repro.attack.covert import CovertReceiver, CovertTrojan, run_covert_channel
from repro.attack.evictionset import (
    EvictionSetBuilder,
    OracleEvictionSetBuilder,
    page_aligned_set_indices,
)
from repro.attack.groundtruth import true_group_sequence
from repro.attack.sequencer import Sequencer, SequencerConfig
from repro.attack.setup import MonitorFactory, unique_buffer_positions
from repro.attack.timing import calibrate_threshold
from repro.core.config import MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.defense.randomization import PartialRandomizer
from repro.experiments.fingerprinting import run_fingerprint_accuracy
from repro.runner import default_runner


@dataclass
class VariantMetrics:
    """All four attack legs for one cache/defense variant."""

    name: str
    backend: str
    #: leg: eviction-set construction (one page-aligned set index)
    build_seconds: float = 0.0
    build_confidence: float = 0.0
    failed_reductions: int = 0
    #: leg: ring sequence recovery
    seq_error_rate: float = 1.0
    seq_distance: int = 0
    #: leg: binary covert channel
    covert_bps: float = 0.0
    covert_error: float = 1.0
    #: leg: closed-world fingerprinting (NaN when the variant's defense
    #: cannot be expressed through MachineConfig alone)
    fingerprint_accuracy: float = math.nan
    #: re-key epochs the sequence leg observed (keyed backend only)
    rekeys: int = 0
    lines_remapped: int = 0
    lines_dropped: int = 0


@dataclass
class RandomizedCacheResult:
    """Per-variant pipeline metrics, modulo baseline first."""

    variants: list[VariantMetrics] = field(default_factory=list)

    def headline_metrics(self) -> dict[str, float]:
        headline: dict[str, float] = {}
        for v in self.variants:
            key = v.name.replace("-", "_")
            headline[f"{key}_build_confidence"] = v.build_confidence
            headline[f"{key}_seq_error"] = v.seq_error_rate
            headline[f"{key}_covert_error"] = v.covert_error
            headline[f"{key}_covert_bps"] = v.covert_bps
            if not math.isnan(v.fingerprint_accuracy):
                headline[f"{key}_fp_accuracy"] = v.fingerprint_accuracy
        return headline

    def format_rows(self) -> list[str]:
        rows = ["Randomized-cache defense sweep (full attack pipeline per variant)"]
        rows.append(
            "  variant       build(ms)  conf   fail   seq-err   covert bps / err"
            "    fp-acc   rekeys"
        )
        for v in self.variants:
            fp = "     —" if math.isnan(v.fingerprint_accuracy) else (
                f"{v.fingerprint_accuracy:6.1%}"
            )
            rows.append(
                f"  {v.name:13s} {v.build_seconds * 1e3:8.2f}  {v.build_confidence:4.2f}"
                f"   {v.failed_reductions:4d}   {v.seq_error_rate:6.1%}"
                f"   {v.covert_bps:8.1f} / {v.covert_error:5.1%}"
                f"   {fp}   {v.rekeys:4d}"
            )
        rows.append(
            "  (conf = fraction of expected conflict groups the timing builder"
            " resolved; rekeys = mapping epochs during the sequence leg)"
        )
        return rows


def _install_defense(machine: Machine, variant: str, partial_interval: int) -> None:
    if variant == "adaptive":
        AdaptivePartition().install(machine)
    elif variant == "partial-rand":
        machine.driver.randomizer = PartialRandomizer(partial_interval)


def _build_leg(
    cfg: MachineConfig, metrics: VariantMetrics, huge_pages: int
) -> None:
    """Timing-only eviction-set construction cost for one set index."""
    machine = Machine(cfg)
    spy = machine.new_process("spy")
    threshold = calibrate_threshold(spy)
    builder = EvictionSetBuilder(spy, threshold, huge_pages=huge_pages)
    set_index = page_aligned_set_indices(machine.llc.geometry)[0]
    start = machine.clock.now
    report = builder.cluster_index_report(set_index)
    metrics.build_seconds = machine.clock.seconds(machine.clock.now - start)
    metrics.build_confidence = report.confidence
    metrics.failed_reductions = report.failed_reductions


def _sequence_leg(
    cfg: MachineConfig,
    metrics: VariantMetrics,
    variant: str,
    partial_interval: int,
    n_monitored: int,
    n_samples: int,
    packet_rate: float,
    huge_pages: int,
) -> None:
    """Ring-order recovery with monitors placed via the live mapping."""
    from repro.net.traffic import ConstantStream

    machine = Machine(cfg)
    machine.install_nic()
    _install_defense(machine, variant, partial_interval)
    spy = machine.new_process("spy")
    threshold = calibrate_threshold(spy)
    builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=huge_pages)
    llc = machine.llc
    positions = unique_buffer_positions(machine)[:n_monitored]
    buffers, head = machine.ring.buffers, machine.ring.head
    groups = [
        builder.group_for_flat(
            llc.flat_set_of(buffers[(head + pos) % len(buffers)].dma_paddr),
            label=f"seq@{pos}",
        )
        for pos in positions
    ]
    sender = ConstantStream(size=64, rate_pps=packet_rate, protocol="broadcast")
    sender.attach(machine, machine.nic)
    epoch_before = llc.mapping_epoch
    sequencer = Sequencer(
        spy, groups, SequencerConfig(n_samples=n_samples, wait_cycles=2000)
    )
    recovered, _trace = sequencer.recover()
    sender.stop()
    truth = true_group_sequence(machine, spy, sequencer.groups)
    distance = cyclic_levenshtein(recovered, truth)
    metrics.seq_distance = distance
    metrics.seq_error_rate = distance / len(truth) if truth else 1.0
    metrics.rekeys = llc.mapping_epoch - epoch_before
    snap = llc.mapping.stats.snapshot()
    metrics.lines_remapped = snap["lines_remapped"]
    metrics.lines_dropped = snap["lines_dropped"]


def _covert_leg(
    cfg: MachineConfig,
    metrics: VariantMetrics,
    variant: str,
    partial_interval: int,
    n_symbols: int,
    packet_rate: float,
    wait_cycles: int,
    huge_pages: int,
    seed: int,
) -> None:
    """Binary covert channel through one uniquely-mapped ring buffer."""
    from repro.analysis.lfsr import lfsr_symbols

    machine = Machine(cfg)
    machine.install_nic()
    _install_defense(machine, variant, partial_interval)
    spy = machine.new_process("spy")
    threshold = calibrate_threshold(spy)
    factory = MonitorFactory(machine, spy, threshold, huge_pages=huge_pages)
    position = unique_buffer_positions(machine)[0]
    receiver = CovertReceiver(spy, [factory.stream_monitors(position)])
    trojan = CovertTrojan(
        alphabet=2, ring_size=len(machine.ring.buffers), rate_pps=packet_rate
    )
    symbols = lfsr_symbols(n_symbols, 2, seed=seed)
    report = run_covert_channel(machine, receiver, trojan, symbols, wait_cycles)
    metrics.covert_bps = report.bandwidth_bps
    metrics.covert_error = report.error_rate


def run_randomized_cache(
    config: MachineConfig | None = None,
    keyed_epoch: int = 20_000,
    skewed_partitions: int = 2,
    partial_interval: int = 1000,
    n_monitored: int = 12,
    n_samples: int = 600,
    n_symbols: int = 24,
    packet_rate: float = 300_000.0,
    wait_cycles: int = 30_000,
    huge_pages: int = 8,
    build_huge_pages: int = 2,
    fingerprint: bool = True,
    seed: int = 0x5EED,
    runner=None,
) -> RandomizedCacheResult:
    """Sweep the full attack pipeline over index backends and defenses.

    Variants: the three index backends (``modulo`` is the bit-identical
    baseline) plus the paper's adaptive partitioning and partial ring
    randomization running on modulo — so the randomized-cache designs are
    read against the defenses the paper itself evaluated (Figs. 14-16).

    ``fingerprint=False`` skips the (slowest) classifier leg; defense
    variants that live outside :class:`MachineConfig` (partition /
    randomizer installs) report NaN there either way, since the
    fingerprint harness builds its machines from config alone.

    The whole sweep runs through ``runner.run_cached`` so a warm rerun is
    a cache hit and every invocation lands in the run ledger with the
    composite's headline metrics (the nested fingerprint phases cache and
    record separately, under their own names).
    """
    base = config or MachineConfig().scaled_down()
    runner = runner or default_runner()
    params = {
        "keyed_epoch": keyed_epoch,
        "skewed_partitions": skewed_partitions,
        "partial_interval": partial_interval,
        "n_monitored": n_monitored,
        "n_samples": n_samples,
        "n_symbols": n_symbols,
        "packet_rate": packet_rate,
        "wait_cycles": wait_cycles,
        "huge_pages": huge_pages,
        "build_huge_pages": build_huge_pages,
        "fingerprint": fingerprint,
        "seed": seed,
    }
    return runner.run_cached(
        "randomized-cache",
        base,
        params,
        lambda: _run_variant_sweep(base, runner=runner, **params),
    )


def _run_variant_sweep(
    base: MachineConfig,
    keyed_epoch: int,
    skewed_partitions: int,
    partial_interval: int,
    n_monitored: int,
    n_samples: int,
    n_symbols: int,
    packet_rate: float,
    wait_cycles: int,
    huge_pages: int,
    build_huge_pages: int,
    fingerprint: bool,
    seed: int,
    runner,
) -> RandomizedCacheResult:
    variants: list[tuple[str, str]] = [
        ("modulo", "modulo"),
        ("keyed", f"keyed:epoch={keyed_epoch}"),
        ("skewed", f"skewed:partitions={skewed_partitions}"),
        ("adaptive", "modulo"),
        ("partial-rand", "modulo"),
    ]
    result = RandomizedCacheResult()
    for name, backend in variants:
        cfg = replace(base, cache_backend=backend)
        metrics = VariantMetrics(name=name, backend=backend)
        _build_leg(cfg, metrics, build_huge_pages)
        _sequence_leg(
            cfg,
            metrics,
            name,
            partial_interval,
            n_monitored,
            n_samples,
            packet_rate,
            huge_pages,
        )
        _covert_leg(
            cfg,
            metrics,
            name,
            partial_interval,
            n_symbols,
            packet_rate,
            wait_cycles,
            huge_pages,
            seed,
        )
        if fingerprint and name in ("modulo", "keyed", "skewed"):
            accuracy = run_fingerprint_accuracy(
                config=cfg,
                train_loads=1,
                trials_per_site=1,
                huge_pages=huge_pages,
                trace_length=50,
                seed=seed,
                runner=runner,
            )
            metrics.fingerprint_accuracy = accuracy.accuracy_ddio
        result.variants.append(metrics)
    return result
