"""The :class:`FaultPlan`: one machine's seeded fault-injection state.

A plan is derived purely from ``(machine seed, FaultConfig)``: each fault
domain (net / nic / cache / timing) gets its own :class:`random.Random`
seeded via :class:`numpy.random.SeedSequence` spawning — the same
discipline :mod:`repro.runner.spec` uses for shard seeds — so two machines
with the same config produce the same fault stream regardless of process
layout, ``--jobs``, or which other injectors fired in between (domains
never share an RNG, so enabling the co-runner cannot perturb packet loss).

The plan is also the counting point: every injector increments
:class:`FaultStats` unconditionally (cheap, experiment-visible) and mirrors
into the ambient telemetry registry's ``faults.*`` counters when metrics
are enabled.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields

import numpy as np

from repro.core.config import FaultConfig

#: Fault-domain labels; the derivation namespace below keeps them disjoint
#: from every experiment tag the runner spawns.
_DOMAINS = ("net", "nic", "cache", "timing")


def derive_fault_seed(root_seed: int, domain: str) -> int:
    """Stable 63-bit seed for one fault domain of one machine."""
    digest = hashlib.sha256(f"repro.faults:{domain}".encode("utf-8")).digest()
    tag = int.from_bytes(digest[:8], "big")
    words = np.random.SeedSequence([root_seed, tag]).generate_state(2, np.uint32)
    return (int(words[0]) << 31 | int(words[1])) & ((1 << 63) - 1)


@dataclass
class FaultStats:
    """Counts of every fault actually injected (ground truth for tests and
    experiment reports; mirrored into telemetry when metrics are on)."""

    frames_dropped: int = 0
    frames_duplicated: int = 0
    frames_reordered: int = 0
    gaps_jittered: int = 0
    nic_overflow_drops: int = 0
    refill_stalls: int = 0
    corunner_accesses: int = 0
    probes_jittered: int = 0

    def total(self) -> int:
        return sum(getattr(self, f.name) for f in fields(self))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultPlan:
    """Seeded draw-by-draw fault decisions for one simulated machine.

    Hook sites (traffic sources, the NIC, ``Process.timed_access``) call
    the ``should_*``/``draw_*`` methods below; each consults only its own
    domain RNG.  Construction is refused for an inactive config — callers
    use :meth:`from_config`, which returns ``None`` so every hook site can
    guard with a single ``is not None`` check and inactive machines carry
    zero fault machinery.
    """

    def __init__(
        self, config: FaultConfig, root_seed: int, telemetry=None, clock=None
    ) -> None:
        if not config.active:
            raise ValueError("FaultPlan requires an active FaultConfig")
        self.config = config
        self.root_seed = root_seed
        self.telemetry = telemetry
        self.stats = FaultStats()
        self._rng = {
            domain: random.Random(derive_fault_seed(root_seed, domain))
            for domain in _DOMAINS
        }
        #: Optional time-varying intensity curve.  When unset every knob is
        #: static and the draw stream is bit-identical to pre-schedule
        #: builds; when set, intensities are scaled by ``scale(sim time)``
        #: read off the machine clock (pure data, still fully seeded).
        if config.schedule:
            from repro.faults.schedule import get_schedule

            self._schedule = get_schedule(config.schedule)
            if clock is None:
                raise ValueError(
                    f"fault schedule {config.schedule!r} needs a machine clock"
                )
        else:
            self._schedule = None
        self._clock = clock

    @classmethod
    def from_config(
        cls, config: FaultConfig, root_seed: int, telemetry=None, clock=None
    ) -> "FaultPlan | None":
        """A plan for an active config, or ``None`` for the off profile."""
        if not config.active:
            return None
        return cls(config, root_seed, telemetry=telemetry, clock=clock)

    # -- time-varying intensity ----------------------------------------
    def schedule_scale(self) -> float:
        """Current schedule scale factor (1.0 without a schedule)."""
        if self._schedule is None:
            return 1.0
        return self._schedule.scale_at(self._clock.seconds())

    def _effective(self, prob: float) -> float:
        """A probability knob after schedule scaling (clamped to 1)."""
        if self._schedule is None:
            return prob
        return min(1.0, prob * self._schedule.scale_at(self._clock.seconds()))

    # -- counting ------------------------------------------------------
    def _count(self, stat: str, counter: str, n: int = 1) -> None:
        setattr(self.stats, stat, getattr(self.stats, stat) + n)
        tele = self.telemetry
        if tele is not None and tele.metrics.enabled:
            tele.metrics.counter(counter).inc(n)

    # -- net domain (consumed by repro.faults.injectors) ---------------
    @property
    def net_active(self) -> bool:
        cfg = self.config
        return bool(
            cfg.drop_prob or cfg.dup_prob or cfg.reorder_prob or cfg.gap_jitter
        )

    def should_drop_frame(self) -> bool:
        prob = self.config.drop_prob
        if prob and self._rng["net"].random() < self._effective(prob):
            self._count("frames_dropped", "faults.net.dropped")
            return True
        return False

    def should_duplicate_frame(self) -> bool:
        prob = self.config.dup_prob
        if prob and self._rng["net"].random() < self._effective(prob):
            self._count("frames_duplicated", "faults.net.duplicated")
            return True
        return False

    def should_reorder_frame(self) -> bool:
        prob = self.config.reorder_prob
        if prob and self._rng["net"].random() < self._effective(prob):
            self._count("frames_reordered", "faults.net.reordered")
            return True
        return False

    def jitter_gap(self, gap_seconds: float) -> float:
        """Apply burst jitter to one inter-frame gap."""
        jitter = self.config.gap_jitter
        if not jitter:
            return gap_seconds
        if self._schedule is not None:
            jitter = min(1.0, jitter * self.schedule_scale())
        factor = self._rng["net"].uniform(1.0 - jitter, 1.0 + jitter)
        if jitter:
            self._count("gaps_jittered", "faults.net.gaps_jittered")
        return max(0.0, gap_seconds * factor)

    # -- nic domain ----------------------------------------------------
    def should_overflow(self) -> bool:
        """Rx-ring overflow: the arriving frame is dropped at the adapter."""
        prob = self.config.nic_overflow_prob
        if prob and self._rng["nic"].random() < self._effective(prob):
            self._count("nic_overflow_drops", "faults.nic.overflow_drops")
            return True
        return False

    def refill_stall(self) -> int:
        """Cycles of descriptor-refill stall for this frame (0 = none)."""
        prob = self.config.refill_stall_prob
        if prob and self._rng["nic"].random() < self._effective(prob):
            self._count("refill_stalls", "faults.nic.refill_stalls")
            return self.config.refill_stall_cycles
        return 0

    # -- cache domain --------------------------------------------------
    @property
    def corunner_active(self) -> bool:
        return self.config.corunner_rate_hz > 0

    def corunner_rng(self) -> random.Random:
        """The cache-noise domain RNG (owned by the co-runner)."""
        return self._rng["cache"]

    def note_corunner_accesses(self, n: int) -> None:
        self._count("corunner_accesses", "faults.cache.noise_accesses", n)

    # -- timing domain -------------------------------------------------
    def probe_jitter(self) -> int:
        """Extra measured cycles for one timed access (0 when disabled)."""
        cap = self.config.probe_jitter_cycles
        if not cap:
            return 0
        if self._schedule is not None:
            cap = int(round(cap * self.schedule_scale()))
            if cap <= 0:
                return 0
        extra = self._rng["timing"].randint(0, cap)
        if extra:
            self._count("probes_jittered", "faults.timing.jittered_probes")
        return extra
