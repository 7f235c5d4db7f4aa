"""Open-loop constant-rate load generation with latency percentiles.

Stands in for the wrk2 tool the paper uses for Fig. 16: requests arrive on
a fixed schedule regardless of how the server is doing (open loop — this is
what exposes queueing delay in the tail), and response latency is recorded
per request.  Percentiles up to p99.99 are reported, like wrk2's latency
histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import percentiles

#: The percentile points Fig. 16 plots.
FIG16_PERCENTILES = (25.0, 50.0, 90.0, 99.0, 99.9, 99.99)


@dataclass
class LatencyReport:
    """Latency distribution of one load-generation run."""

    latencies_cycles: list[int]
    duration_cycles: int
    frequency_hz: float
    offered_rps: float

    @property
    def completed(self) -> int:
        return len(self.latencies_cycles)

    @property
    def achieved_rps(self) -> float:
        if self.duration_cycles == 0:
            return 0.0
        return self.completed * self.frequency_hz / self.duration_cycles

    def percentiles_ms(
        self, points: tuple[float, ...] = FIG16_PERCENTILES
    ) -> dict[float, float]:
        """Latency percentiles in milliseconds."""
        cycle_ms = 1000.0 / self.frequency_hz
        raw = percentiles(self.latencies_cycles, points)
        return {p: v * cycle_ms for p, v in raw.items()}


class LoadGenerator:
    """Constant-rate open-loop driver for a request server.

    The server is anything with ``handle_request() -> service_cycles``
    (e.g. :class:`repro.perf.workloads.NginxServer`).  Requests that arrive
    while the server is busy queue FIFO; their latency includes the wait.
    """

    def __init__(self, machine, server, rate_rps: float, n_requests: int) -> None:
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {rate_rps}")
        if n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {n_requests}")
        self.machine = machine
        self.server = server
        self.rate_rps = rate_rps
        self.n_requests = n_requests

    def run(self) -> LatencyReport:
        machine = self.machine
        clock = machine.clock
        interval = clock.cycles(1.0 / self.rate_rps)
        start = clock.now
        latencies: list[int] = []
        for i in range(self.n_requests):
            arrival = start + i * interval
            if clock.now < arrival:
                machine.idle(arrival - clock.now)
            # Server picks the request up now (possibly late = queueing).
            self.server.handle_request()
            latencies.append(clock.now - arrival)
        return LatencyReport(
            latencies_cycles=latencies,
            duration_cycles=clock.now - start,
            frequency_hz=clock.frequency_hz,
            offered_rps=self.rate_rps,
        )
