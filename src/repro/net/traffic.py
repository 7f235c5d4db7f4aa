"""Traffic sources: schedule paced frame deliveries into the NIC.

Each source is attached to a machine + NIC pair and schedules its frames on
the machine's event queue.  Delivery times respect both the requested send
rate and the physical line rate for the frame size (a 1 GbE link cannot
carry more than ~500k 192-byte frames per second — the limit behind the
covert channel's 1953 symbols/s ceiling in Section IV).

Sources self-reschedule one event at a time, so arbitrarily long streams
cost O(1) queue space.

Frame events are *burst-capable*: when the machine's event loop finds one
at the head of the queue with no other event pending before it would
matter, it hands the source the whole window up to the next foreign event
(see ``Machine._run_pending``) and :meth:`TrafficSource._drain` delivers
the window's frames as batches — one heap round-trip and one NIC call per
*burst* instead of per frame.  One gate decides whether it may:
``Nic.can_batch`` (no fault plan, and a cache policy the burst kernel
models).  Otherwise the drain delivers the one frame its event was for and
schedules the next, as the scalar path does: faulted, DDIO-off,
partitioned, skewed-index and eviction-hook machines all go through the
heap.  Each frame is still delivered at exactly the cycle and in exactly
the iterator/RNG order of the scalar path, which
``tests/test_rx_equivalence.py`` pins.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from repro.core.config import LinkConfig
from repro.net.packet import Frame


#: Frames per ``Nic.deliver_burst`` call when a drain batches: bounds
#: working memory and keeps each vectorised engine call comfortably
#: inside cache-friendly array sizes.
_BATCH_MAX = 128


class TrafficSource(ABC):
    """Base class: generates frames and schedules them onto a machine."""

    def __init__(self, link: LinkConfig | None = None) -> None:
        self.link = link or LinkConfig()
        self.sent = 0
        self._machine = None
        self._nic = None
        self._stopped = False
        self._pending: Frame | None = None

    @abstractmethod
    def _frames(self) -> Iterator[tuple[float, Frame]]:
        """Yield ``(gap_seconds, frame)`` pairs; gap precedes the frame.

        The iterator must be pure with respect to simulation state: it
        must not read machine, cache or ring state, nor share an RNG with
        any machine component.  A burst drain draws it up to a batch
        ahead of the deliveries, so an iterator that observed the
        simulation would see it out of step.
        """

    def attach(self, machine, nic, start_at: int | None = None) -> None:
        """Begin delivering frames via ``machine.events`` into ``nic``.

        When the machine carries an active fault plan with net faults, the
        frame stream is transparently wrapped with seeded loss, duplication,
        reordering and burst jitter (:mod:`repro.faults.injectors`) — every
        source, including experiment senders, sees the same lossy link.
        """
        self._machine = machine
        self._nic = nic
        self._iter = self._frames()
        faults = getattr(machine, "faults", None)
        if faults is not None and faults.net_active:
            from repro.faults.injectors import faulty_frames

            self._iter = faulty_frames(faults, self._iter)
        start = machine.clock.now if start_at is None else start_at
        self._schedule_next(start)

    def stop(self) -> None:
        """Stop after the currently scheduled frame (if any)."""
        self._stopped = True

    def _schedule_next(self, earliest: int) -> None:
        if self._stopped:
            return
        try:
            gap_s, frame = next(self._iter)
        except StopIteration:
            return
        clock = self._machine.clock
        # The frame cannot arrive faster than the wire can carry it.
        gap_s = max(gap_s, self.link.frame_time_seconds(frame.size))
        at = max(earliest + clock.cycles(gap_s), clock.now)
        self._pending = frame
        self._machine.events.schedule(
            at, self._fire, label=f"frame#{frame.frame_id}", drain=self._drain
        )

    def _deliver_pending(self) -> None:
        frame = self._pending
        self._pending = None
        frame.sent_time = self._machine.clock.now
        self._nic.deliver(frame)
        self.sent += 1

    def _fire(self) -> None:
        """Scalar event action: deliver one frame, schedule the next."""
        self._deliver_pending()
        self._schedule_next(self._machine.clock.now)

    def _drain(self, event, limit: int | None) -> None:
        """Burst handler: deliver frames back-to-back until ``limit``.

        Invoked by the machine's event loop in place of ``_fire`` with the
        clock already advanced to the event time.  When the NIC cannot
        batch (``Nic.can_batch``) it is ``_fire``: one frame, and the next
        through the heap.  Otherwise each iteration collects the pending
        frame at ``clock.now``, draws the next from the iterator at the
        same simulated instant the scalar path would (keeping draw order
        identical), and either keeps going — advancing the clock
        directly — or schedules the next frame when the burst window
        closes.  The collected frames go to ``Nic.deliver_burst`` with
        their arrival cycles, in groups of at most ``_BATCH_MAX``, which
        applies the cache work of a whole group at once.  State is
        bit-identical to delivering frame by frame (pinned by
        ``tests/test_rx_equivalence.py``).
        """
        nic = self._nic
        if not nic.can_batch():
            self._fire()
            return
        machine = self._machine
        clock = machine.clock
        events = machine.events
        batch = []
        while True:
            frame = self._pending
            self._pending = None
            frame.sent_time = clock.now
            batch.append((clock.now, frame))
            self.sent += 1
            if len(batch) >= _BATCH_MAX:
                nic.deliver_burst(batch)
                batch = []
            if self._stopped:
                break
            try:
                gap_s, frame = next(self._iter)
            except StopIteration:
                break
            gap_s = max(gap_s, self.link.frame_time_seconds(frame.size))
            at = max(clock.now + clock.cycles(gap_s), clock.now)
            self._pending = frame
            if limit is not None and at > limit:
                events.schedule(
                    at, self._fire, label=f"frame#{frame.frame_id}", drain=self._drain
                )
                break
            clock.advance_to(at)
        if batch:
            nic.deliver_burst(batch)


class ConstantStream(TrafficSource):
    """A fixed-size, fixed-rate stream (the paper's broadcast sender)."""

    def __init__(
        self,
        size: int,
        rate_pps: float,
        count: int | None = None,
        protocol: str = "broadcast",
        link: LinkConfig | None = None,
    ) -> None:
        super().__init__(link)
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        self.size = size
        self.rate_pps = rate_pps
        self.count = count
        self.protocol = protocol

    def _frames(self) -> Iterator[tuple[float, Frame]]:
        gap = 1.0 / self.rate_pps
        n = 0
        while self.count is None or n < self.count:
            yield gap, Frame(size=self.size, protocol=self.protocol)
            n += 1


class PatternStream(TrafficSource):
    """Replays an explicit sequence of frame sizes at a fixed rate.

    The covert-channel trojan builds on this: each symbol becomes a burst of
    equal-size frames (see :mod:`repro.attack.covert`).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rate_pps: float,
        symbols: Sequence[int] | None = None,
        protocol: str = "broadcast",
        link: LinkConfig | None = None,
    ) -> None:
        super().__init__(link)
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        if symbols is not None and len(symbols) != len(sizes):
            raise ValueError("symbols must parallel sizes")
        self.sizes = list(sizes)
        self.symbols = list(symbols) if symbols is not None else None
        self.rate_pps = rate_pps
        self.protocol = protocol

    def _frames(self) -> Iterator[tuple[float, Frame]]:
        gap = 1.0 / self.rate_pps
        for i, size in enumerate(self.sizes):
            symbol = self.symbols[i] if self.symbols is not None else None
            yield gap, Frame(size=size, protocol=self.protocol, symbol=symbol)


class PoissonNoise(TrafficSource):
    """Background traffic with exponential inter-arrivals and random sizes.

    Used to stress the attack's noise tolerance: these are the "extra
    packets not sent by the co-operating sender" of Section III-C.
    """

    def __init__(
        self,
        rate_pps: float,
        rng: random.Random,
        size_choices: Sequence[int] = (64, 128, 256, 512, 1514),
        count: int | None = None,
        protocol: str = "tcp",
        link: LinkConfig | None = None,
    ) -> None:
        super().__init__(link)
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        self.rate_pps = rate_pps
        self.rng = rng
        self.size_choices = list(size_choices)
        self.count = count
        self.protocol = protocol

    def _frames(self) -> Iterator[tuple[float, Frame]]:
        n = 0
        while self.count is None or n < self.count:
            gap = self.rng.expovariate(self.rate_pps)
            size = self.rng.choice(self.size_choices)
            yield gap, Frame(size=size, protocol=self.protocol)
            n += 1


class TraceReplay(TrafficSource):
    """Replays ``(gap_seconds, size)`` pairs — e.g. a website load trace."""

    def __init__(
        self,
        trace: Iterable[tuple[float, int]],
        protocol: str = "tcp",
        link: LinkConfig | None = None,
    ) -> None:
        super().__init__(link)
        self.trace = list(trace)
        self.protocol = protocol

    def _frames(self) -> Iterator[tuple[float, Frame]]:
        for gap_s, size in self.trace:
            yield gap_s, Frame(size=size, protocol=self.protocol)
