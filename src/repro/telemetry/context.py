"""The Telemetry bundle and the ambient-installation mechanism.

Experiments construct machines deep inside library code, so telemetry is
wired in *ambiently*: the CLI (or a test) installs a :class:`Telemetry`
with :func:`install` / :func:`session`, and every :class:`~repro.core.
machine.Machine` built while it is installed picks it up in its
constructor.  Nothing is installed by default — ``current_telemetry()``
returns ``None`` and every hook site in the simulator guards on that, so
untelemetered runs execute the exact pre-telemetry instruction stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import DEFAULT_MAX_EVENTS, Tracer


@dataclass
class Telemetry:
    """One run's tracer + metrics registry, handed around as a unit."""

    tracer: Tracer
    metrics: MetricsRegistry

    @classmethod
    def create(
        cls,
        trace: bool = True,
        metrics: bool = True,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> "Telemetry":
        return cls(
            tracer=Tracer(enabled=trace, max_events=max_events),
            metrics=MetricsRegistry(enabled=metrics),
        )

    @property
    def active(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    # -- convenience hooks used by the hot paths ----------------------
    def on_dma_fill(self, n: int = 1) -> None:
        """``n`` DDIO lines allocated in the LLC by inbound DMA.

        The rx burst path reports a whole burst's fills in one call; the
        counter value is identical to ``n`` scalar calls.
        """
        if self.metrics.enabled:
            self.metrics.counter("llc.dma_fills").inc(n)

    def on_io_evict_cpu(self, line: int) -> None:
        """An I/O fill displaced a CPU-origin line — the paper's signal."""
        if self.metrics.enabled:
            self.metrics.counter("llc.io_evicted_cpu").inc()
        if self.tracer.enabled:
            self.tracer.instant("io-evict-cpu", cat="llc", args={"line": line})


_CURRENT: Telemetry | None = None


def current_telemetry() -> Telemetry | None:
    """The ambiently installed telemetry, or ``None``."""
    return _CURRENT


def install(telemetry: Telemetry | None) -> Telemetry | None:
    """Install ``telemetry`` as ambient; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


class session:
    """``with session(telemetry): ...`` — install for a scope, then restore."""

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self._previous: Telemetry | None = None

    def __enter__(self) -> Telemetry:
        self._previous = install(self.telemetry)
        return self.telemetry

    def __exit__(self, *exc_info) -> None:
        install(self._previous)
