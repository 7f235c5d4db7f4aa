"""Adaptive I/O cache partitioning — the paper's hardware defense (§VII).

Each LLC set gets an I/O partition of ``IO_lines`` ways (1..3, initially 2).
The partition boundary is *hard* within an adaptation period: DDIO fills may
only displace other I/O lines, CPU fills only CPU lines — so incoming
packets become invisible to a PRIME+PROBE spy.  A per-set presence counter
(``IO_present``) tracks how many cycles the set held at least one valid I/O
line; every ``period`` cycles the boundary adapts:

* presence >= ``t_high``  -> grow the I/O partition (saturating at 3);
* presence <= ``t_low``   -> shrink it (saturating at 1);

and lines stranded on the wrong side of a moved boundary are invalidated
(with writeback), which is the only instant any cross-partition effect is
visible — at most one bit of information per period, as the paper argues.

Presence is accounted lazily (on fills and at adaptation) so the simulation
never has to tick 16384 counters per cycle.

Since the engine refactor the partition operates directly on the packed
representation: every hook receives the flat set id and performs its
victim selection and boundary invalidations through the LLC's
:class:`~repro.cache.engine.CacheEngine`.  The pre-engine cset-based
variant is frozen in :mod:`reference.cache` for differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PartitionConfig:
    """Paper parameters: p = 10k cycles, Thigh = 5k, Tlow = 2k, 1..3 ways."""

    period: int = 10_000
    t_high: int = 5_000
    t_low: int = 2_000
    min_quota: int = 1
    max_quota: int = 3
    init_quota: int = 2

    def __post_init__(self) -> None:
        if not 0 < self.t_low < self.t_high <= self.period:
            raise ValueError("need 0 < t_low < t_high <= period")
        if not 0 < self.min_quota <= self.init_quota <= self.max_quota:
            raise ValueError("need 0 < min_quota <= init_quota <= max_quota")


@dataclass
class PartitionStats:
    """Defense activity counters."""

    adaptations: int = 0
    quota_grown: int = 0
    quota_shrunk: int = 0
    boundary_invalidations: int = 0


class AdaptivePartition:
    """Per-set I/O/CPU partition state, pluggable into :class:`SlicedLLC`."""

    def __init__(self, config: PartitionConfig | None = None) -> None:
        self.config = config or PartitionConfig()
        self.stats = PartitionStats()
        self._quota: dict[int, int] = {}
        #: Quota of sets never individually adapted.  Starts at init_quota
        #: and decays to min_quota like any I/O-free set would, without
        #: having to materialise per-set counters for the whole LLC.
        self._default_quota = self.config.init_quota
        #: Accumulated I/O-present cycles per set, this period.
        self._presence: dict[int, int] = {}
        #: Sets currently holding >= 1 I/O line -> time the streak started.
        self._io_since: dict[int, int] = {}
        self._period_start = 0
        self._machine = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, machine) -> None:
        """Attach to the machine's LLC and schedule adaptation ticks."""
        if machine.llc.partition is not None:
            raise RuntimeError("LLC already has a partition installed")
        machine.llc.partition = self
        self._machine = machine
        self._period_start = machine.clock.now

        def tick() -> None:
            self.adapt(machine.llc, machine.clock.now)
            machine.events.schedule(
                machine.clock.now + self.config.period, tick, label="partition-adapt"
            )

        machine.events.schedule(
            machine.clock.now + self.config.period, tick, label="partition-adapt"
        )

    def quota(self, flat: int) -> int:
        """Current I/O partition size of a set."""
        return self._quota.get(flat, self._default_quota)

    # ------------------------------------------------------------------
    # Victim selection (called by the LLC before inserting a fill)
    # ------------------------------------------------------------------
    def victim_for_io_fill(self, llc, flat: int, now: int):
        """Make room for an I/O fill strictly inside the I/O partition."""
        engine = llc.engine
        if engine.io_count(flat) >= self.quota(flat):
            return engine.evict_lru_of(flat, io=True)
        if engine.size(flat) >= engine.ways:
            # Transitional only (e.g. partition freshly installed over a
            # full cache): take a CPU line once; invariants hold thereafter.
            return engine.evict_lru(flat)
        return None

    def victim_for_cpu_fill(self, llc, flat: int, now: int):
        """Make room for a CPU fill strictly inside the CPU partition."""
        engine = llc.engine
        cpu_limit = engine.ways - self.quota(flat)
        if engine.cpu_count(flat) >= cpu_limit:
            victim = engine.evict_lru_of(flat, io=False)
            if victim is not None:
                return victim
        if engine.size(flat) >= engine.ways:
            return engine.evict_lru(flat)
        return None

    # ------------------------------------------------------------------
    # Presence accounting
    # ------------------------------------------------------------------
    def after_fill(self, llc, flat: int, now: int) -> None:
        """Update the lazy I/O-presence clock after any set mutation."""
        has_io = llc.engine.io_count(flat) > 0
        since = self._io_since.get(flat)
        if has_io and since is None:
            self._io_since[flat] = now
        elif not has_io and since is not None:
            start = max(since, self._period_start)
            self._presence[flat] = self._presence.get(flat, 0) + max(0, now - start)
            del self._io_since[flat]

    def presence_this_period(self, flat: int, now: int) -> int:
        """I/O-present cycles accumulated by ``flat`` in the open period."""
        total = self._presence.get(flat, 0)
        since = self._io_since.get(flat)
        if since is not None:
            total += max(0, now - max(since, self._period_start))
        return min(total, max(0, now - self._period_start))

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def adapt(self, llc, now: int) -> None:
        """Re-evaluate the I/O/CPU boundary of every set that saw I/O."""
        cfg = self.config
        self.stats.adaptations += 1
        candidates = set(self._presence) | set(self._io_since)
        for flat in candidates:
            presence = self.presence_this_period(flat, now)
            quota = self.quota(flat)
            if presence >= cfg.t_high and quota < cfg.max_quota:
                self._set_quota(llc, flat, quota + 1)
                self.stats.quota_grown += 1
            elif presence <= cfg.t_low and quota > cfg.min_quota:
                self._set_quota(llc, flat, quota - 1)
                self.stats.quota_shrunk += 1
        # Sets with a decayed quota that saw no I/O at all also shrink.
        for flat, quota in list(self._quota.items()):
            if flat not in candidates and quota > cfg.min_quota:
                self._set_quota(llc, flat, quota - 1)
                self.stats.quota_shrunk += 1
        # Sets never individually adapted decay collectively.
        if self._default_quota > cfg.min_quota:
            self._default_quota -= 1
        self._presence.clear()
        for flat in list(self._io_since):
            self._io_since[flat] = now
        self._period_start = now

    def _set_quota(self, llc, flat: int, new_quota: int) -> None:
        """Move the boundary, invalidating lines stranded on the wrong side."""
        self._quota[flat] = new_quota
        engine = llc.engine
        # Shrinking I/O partition: excess I/O lines leave (with writeback).
        while engine.io_count(flat) > new_quota:
            victim = engine.evict_lru_of(flat, io=True)
            if victim is None:
                break
            llc._retire(victim, by_io=True)
            self.stats.boundary_invalidations += 1
        # Growing it: excess CPU lines leave.
        cpu_limit = engine.ways - new_quota
        while engine.cpu_count(flat) > cpu_limit:
            victim = engine.evict_lru_of(flat, io=False)
            if victim is None:
                break
            llc._retire(victim, by_io=False)
            self.stats.boundary_invalidations += 1
