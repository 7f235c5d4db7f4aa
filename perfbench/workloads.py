"""The benchmark's workloads: seeded inputs, set-up, and the op steps.

Every workload follows one shape.  :meth:`Workload.inputs` turns the
workload seed into plain data (page-load traces, stream phase, request
seeds, ...); :meth:`Workload.setup` builds the simulated machine(s) from
those inputs; :meth:`Workload.step` runs one step of the fixed op schedule
and returns the host time of each op in it plus the step's simulated
output, which the runner digests and checks.  A step is one op, except on
``nginx`` where one step is a :class:`LoadGenerator` run of several
requests (each request is an op).

The layers are driven only through their public functions, so the traced
run (see :mod:`perfbench.tracing`) sees every call the workload makes.
Module functions the tracer wraps (``calibrate_threshold``,
``cyclic_levenshtein``) are called through their module for that reason.
"""

from __future__ import annotations

import importlib
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.analysis.correlation import CorrelationClassifier
from repro.analysis.stats import percentile
from repro.attack import timing
from repro.attack.evictionset import OracleEvictionSetBuilder
from repro.attack.fingerprint import CaptureConfig, TraceCollector
from repro.attack.groundtruth import true_group_sequence
from repro.attack.sequencer import Sequencer, SequencerConfig
from repro.attack.setup import MonitorFactory
from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.defense.randomization import FullRandomizer, PartialRandomizer
from repro.net.traffic import ConstantStream, PoissonNoise
from repro.net.websites import WebsiteCorpus
from repro.perf.workloads import NginxServer
from repro.perf.wrk import LoadGenerator

# The package re-exports a function under the submodule's name.
levenshtein = importlib.import_module("repro.analysis.levenshtein")


@dataclass
class State:
    """What a workload's set-up built: the machines whose statistics the
    runner reads, the traffic sources feeding them, and workload data."""

    machines: list
    sources: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


@dataclass
class StepResult:
    """Host time of each op in the step, and the simulated output."""

    op_times: list[float]
    output: tuple


class Workload(ABC):
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    #: Steps in one measured pass (a fixed op schedule per seed).
    steps_per_pass: int
    #: Steps replayed untraced and then traced in a ``--trace 1`` run.
    trace_steps: int
    #: Ops per step.
    ops_per_step: int = 1

    @abstractmethod
    def inputs(self, seed: int):
        """Every input of the run, generated from ``seed``."""

    @abstractmethod
    def setup(self, inputs) -> State:
        """Build the machine(s); the op schedule starts right after."""

    @abstractmethod
    def step(self, state: State, inputs, index: int) -> StepResult:
        """Run step ``index`` of the schedule."""

    @abstractmethod
    def check(self, output: tuple) -> str | None:
        """A description of what is wrong with one step's output, or None."""

    @abstractmethod
    def headline(self, outputs: list[tuple]) -> list[str]:
        """Simulated headline next to the paper's value (informational)."""


# ----------------------------------------------------------------------
# chase: Section V fingerprinting on the CLI-default machine
# ----------------------------------------------------------------------
class Chase(Workload):
    """Section V capture: 5-site page loads chased on a DDIO-on and a
    DDIO-off rig under 350 pps Poisson background noise; one training load
    per site and rig, then classify loads, each captured on both rigs.
    Op = one ``TraceCollector.capture_load`` (classify ops also classify).

    Each op starts from a chaser re-synchronised to the ring head, as every
    trial of the accuracy experiment does by building a fresh rig; a
    desynchronisation left over from the previous load would otherwise
    decide whether the next capture times out dozens of times.  The spy
    polls at the ``CaptureConfig`` default gap, as ``repro accuracy`` does.
    """

    name = "chase"
    #: First packets of each page load replayed, and the fingerprint length.
    frames = 40
    noise_pps = 350.0
    #: About one page-load frame gap.  A timeout inside a load only counts
    #: a miss (the chaser keeps waiting on the same buffer); a spy that
    #: lost sync at the end of a load gives up after n + 128 of them
    #: instead of waiting for the background noise to lap the ring.
    timeout_cycles = 500_000
    classify_rounds = 9
    steps_per_pass = 10 + classify_rounds * 10
    trace_steps = 60

    def inputs(self, seed: int):
        rng = random.Random(f"perfbench:chase:{seed}")
        corpus = WebsiteCorpus()
        sites = corpus.names()
        schedule = []
        for site in sites:
            for ddio in (True, False):
                load = corpus.get(site).sample(rng)[: self.frames]
                schedule.append(("train", ddio, site, load))
        for _round in range(self.classify_rounds):
            order = list(sites)
            rng.shuffle(order)
            for site in order:
                # The same victim load is captured on both rigs, so the
                # DDIO-on/off comparison is paired, as in Section V.
                load = corpus.get(site).sample(rng)[: self.frames]
                for ddio in (True, False):
                    schedule.append(("classify", ddio, site, load))
        noise_seeds = {True: rng.getrandbits(64), False: rng.getrandbits(64)}
        return {"schedule": schedule, "noise_seeds": noise_seeds}

    def _rig(self, ddio: bool, noise_seed: int):
        base = MachineConfig().scaled_down()
        cfg = replace(base, ddio=DDIOConfig(enabled=ddio))
        machine = Machine(cfg)
        machine.install_nic()
        spy = machine.new_process("spy")
        threshold = timing.calibrate_threshold(spy)
        factory = MonitorFactory(machine, spy, threshold, huge_pages=16)
        chaser = factory.full_ring_chaser()
        capture = CaptureConfig(
            trace_length=self.frames,
            timeout_cycles=self.timeout_cycles,
            # Without DDIO the spy waits out the payload lag before sizing.
            size_wait=0
            if ddio
            else cfg.timing.payload_touch_delay + cfg.timing.io_to_driver_latency,
        )
        collector = TraceCollector(machine, chaser, capture)
        noise = PoissonNoise(rate_pps=self.noise_pps, rng=random.Random(noise_seed))
        noise.attach(machine, machine.nic)
        return machine, factory, collector, noise

    def setup(self, inputs) -> State:
        rigs = {}
        machines, sources = [], []
        for ddio in (True, False):
            machine, factory, collector, noise = self._rig(
                ddio, inputs["noise_seeds"][ddio]
            )
            rigs[ddio] = {
                "factory": factory,
                "collector": collector,
                "training": {},
                "classifier": None,
            }
            machines.append(machine)
            sources.append(noise)
        return State(machines=machines, sources=sources, data={"rigs": rigs})

    def step(self, state: State, inputs, index: int) -> StepResult:
        phase, ddio, site, load = inputs["schedule"][index]
        rig = state.data["rigs"][ddio]
        t0 = perf_counter()
        collector = rig["collector"]
        collector.chaser = rig["factory"].full_ring_chaser()
        sizes = collector.capture_load(load)
        if phase == "train":
            rig["training"].setdefault(site, []).append(sizes)
            predicted = None
        else:
            if rig["classifier"] is None:
                classifier = CorrelationClassifier(trace_length=self.frames, max_lag=8)
                classifier.fit(rig["training"])
                rig["classifier"] = classifier
            predicted = rig["classifier"].classify(sizes)
        elapsed = perf_counter() - t0
        return StepResult([elapsed], (phase, ddio, site, tuple(sizes), predicted))

    def check(self, output: tuple) -> str | None:
        phase, _ddio, _site, sizes, predicted = output
        if not all(1 <= s <= 4 for s in sizes) or len(sizes) > self.frames:
            return f"capture sizes out of range: {sizes!r}"
        if phase == "classify" and predicted not in WebsiteCorpus.DEFAULT_SITES:
            return f"prediction {predicted!r} is not a corpus site"
        return None

    def headline(self, outputs: list[tuple]) -> list[str]:
        lines = []
        for ddio, paper in ((True, "89.7%"), (False, "86.5%")):
            tried = [o for o in outputs if o[0] == "classify" and o[1] == ddio]
            right = sum(1 for o in tried if o[4] == o[2])
            share = right / len(tried) if tried else 0.0
            label = "with DDIO" if ddio else "without DDIO"
            lines.append(
                f"accuracy {label}: {share:.1%} of {len(tried)} "
                f"(paper: {paper} over 1000 trials)"
            )
        return lines


# ----------------------------------------------------------------------
# scan / scan-keyed: Table I, Algorithm 1
# ----------------------------------------------------------------------
class Scan(Workload):
    """Table I / Algorithm 1 on the ``bench_scale`` machine: 32 page-aligned
    sets monitored at 8 kHz against a 200 kpps stream of 64-B broadcasts.
    Op = one ``Sequencer.recover()``, scored by ``cyclic_levenshtein``."""

    name = "scan"
    backend = "modulo"
    n_monitored = 32
    n_samples = 200
    packet_rate = 200_000.0
    probe_rate_hz = 8000.0
    steps_per_pass = 35
    trace_steps = 16

    def inputs(self, seed: int):
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        # bench_scale has 32 page-aligned set indices x 8 slices.
        monitored = sorted(rng.sample(range(256), self.n_monitored))
        frequency = MachineConfig().processor.frequency_hz
        phase = rng.randrange(int(frequency / self.packet_rate))
        return {"monitored": monitored, "stream_phase": phase}

    def setup(self, inputs) -> State:
        cfg = replace(MachineConfig().bench_scale(), cache_backend=self.backend)
        machine = Machine(cfg)
        machine.install_nic()
        spy = machine.new_process("spy")
        threshold = timing.calibrate_threshold(spy)
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=16)
        block0 = builder.build_page_aligned_groups(block=0)
        block1 = builder.build_page_aligned_groups(block=1)
        groups = [block0[i] for i in inputs["monitored"]]
        # A noisy block-0 set is swapped for the same buffer's block-1 set.
        spares = [block1[i] for i in inputs["monitored"]]
        sender = ConstantStream(
            size=64, rate_pps=self.packet_rate, protocol="broadcast"
        )
        sender.attach(
            machine, machine.nic, start_at=machine.clock.now + inputs["stream_phase"]
        )
        sweep_cycles = int(machine.clock.frequency_hz / self.probe_rate_hz)
        probe_cost = sum(len(g) for g in groups) * (
            machine.llc.timing.llc_hit_latency + machine.llc.timing.measure_overhead
        )
        config = SequencerConfig(
            n_samples=self.n_samples, wait_cycles=max(0, sweep_cycles - probe_cost)
        )
        return State(
            machines=[machine],
            sources=[sender],
            data={"spy": spy, "groups": groups, "spares": spares, "config": config},
        )

    def step(self, state: State, inputs, index: int) -> StepResult:
        data = state.data
        spares = data["spares"]
        t0 = perf_counter()
        sequencer = Sequencer(
            data["spy"],
            data["groups"],
            data["config"],
            replacement_provider=lambda i, _es: spares[i],
        )
        recovered, _trace = sequencer.recover()
        truth = true_group_sequence(state.machines[0], data["spy"], sequencer.groups)
        distance = levenshtein.cyclic_levenshtein(recovered, truth)
        elapsed = perf_counter() - t0
        return StepResult([elapsed], (tuple(recovered), tuple(truth), distance))

    def check(self, output: tuple) -> str | None:
        recovered, truth, distance = output
        valid = range(self.n_monitored)
        if not all(g in valid for g in recovered + truth):
            return "sequence names a set that is not monitored"
        if not 0 <= distance <= max(len(recovered), len(truth)):
            return f"distance {distance} outside [0, max length]"
        return None

    def headline(self, outputs: list[tuple]) -> list[str]:
        errors = [d / len(t) if t else 1.0 for _r, t, d in outputs]
        mean = sum(errors) / len(errors) if errors else 0.0
        return [
            f"sequence error rate: {mean:.1%} mean over {len(errors)} recoveries "
            f"of {self.n_samples} samples (paper: 9.8% at 100k samples)"
        ]


class ScanKeyed(Scan):
    """``scan`` under the CEASER-shaped ``keyed:epoch=20000`` index."""

    name = "scan-keyed"
    backend = "keyed:epoch=20000"
    steps_per_pass = 24
    trace_steps = 10


# ----------------------------------------------------------------------
# nginx: Fig. 16 defense schemes, no spy
# ----------------------------------------------------------------------
class Nginx(Workload):
    """Fig. 16: an Nginx-like server on ``scaled_down`` under each defense
    scheme, open-loop at a fixed request rate in simulated time.
    Op = one ``NginxServer.handle_request``; a step is one
    ``LoadGenerator`` run of :attr:`ops_per_step` requests on one scheme."""

    name = "nginx"
    schemes = (
        "baseline",
        "full-random",
        "partial-1000",
        "partial-10000",
        "adaptive",
    )
    rate_rps = 140_000.0
    ops_per_step = 40
    steps_per_pass = 5 * 5
    trace_steps = 5 * 12

    def inputs(self, seed: int):
        rng = random.Random(f"perfbench:nginx:{seed}")
        # Per-scheme seed of the server's Zipf file-popularity draws.
        return {"request_seeds": {s: rng.getrandbits(64) for s in self.schemes}}

    def setup(self, inputs) -> State:
        base = MachineConfig().scaled_down()
        servers = {}
        machines = []
        for scheme in self.schemes:
            machine = Machine(base)
            machine.install_nic()
            randomizer = None
            if scheme == "adaptive":
                AdaptivePartition().install(machine)
            elif scheme == "full-random":
                randomizer = FullRandomizer()
            elif scheme.startswith("partial-"):
                randomizer = PartialRandomizer(int(scheme.split("-")[1]))
            server = NginxServer(
                machine, rng=random.Random(inputs["request_seeds"][scheme])
            )
            if randomizer is not None:
                machine.driver.randomizer = randomizer
                server.randomizer = randomizer
            servers[scheme] = server
            machines.append(machine)
        return State(machines=machines, data={"servers": servers})

    def step(self, state: State, inputs, index: int) -> StepResult:
        scheme = self.schemes[index % len(self.schemes)]
        server = state.data["servers"][scheme]
        op_times: list[float] = []
        handle = server.handle_request

        def timed_request():
            t0 = perf_counter()
            cycles = handle()
            op_times.append(perf_counter() - t0)
            return cycles

        server.handle_request = timed_request
        try:
            report = LoadGenerator(
                server.machine, server, self.rate_rps, self.ops_per_step
            ).run()
        finally:
            del server.handle_request
        return StepResult(
            op_times, (scheme, tuple(report.latencies_cycles), report.duration_cycles)
        )

    def check(self, output: tuple) -> str | None:
        _scheme, latencies, duration = output
        if len(latencies) != self.ops_per_step or min(latencies) <= 0:
            return "missing or non-positive request latencies"
        if duration <= 0:
            return "load generator advanced no simulated time"
        return None

    def headline(self, outputs: list[tuple]) -> list[str]:
        p99 = {}
        for scheme in self.schemes:
            lat = [v for o in outputs if o[0] == scheme for v in o[1]]
            if lat:
                p99[scheme] = percentile(lat, 99.0)
        lines = []
        base = p99.get("baseline")
        for scheme, paper in (("full-random", "+41.8%"), ("adaptive", "+3.1%")):
            if base and scheme in p99:
                lines.append(
                    f"p99 latency {scheme} vs baseline: "
                    f"{100 * (p99[scheme] / base - 1):+.1f}% (paper: {paper})"
                )
        return lines


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Chase(), Scan(), ScanKeyed(), Nginx())
}
