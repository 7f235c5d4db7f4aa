"""The NIC's DMA engine: frames land in the LLC (DDIO) or DRAM (no DDIO).

With DDIO (the default on the paper's platform), every cache block of an
incoming frame is written straight into the last-level cache at arrival
time, so header and payload appear simultaneously — the property that lets
the spy read packet *sizes*.  Without DDIO the frame is written to DRAM;
blocks only enter the cache when the driver reads the header (after an
I/O-to-driver latency) and when the stack touches the payload (later
still), which delays and blurs — but does not eliminate — the signal
(Section IV-d of the paper).

Each frame's DMA fill is one batched engine call
(:meth:`repro.cache.llc.SlicedLLC.io_write_many`) over the buffer's
precomputed decomposition (:class:`repro.nic.driver.RxTemplates`, owned by
the driver).  Frames that land back-to-back with nothing observing the
machine in between are delivered as a burst (:meth:`Nic.deliver_burst`):
the driver's one receive description — its control flow and its touch
sequence — is run per frame, then the whole burst's cache-op stream is
applied in one engine call.  The pre-batching path is frozen in
:mod:`repro.nic.legacy` and pinned bit-identical by
``tests/test_rx_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.counters import CounterStats
from repro.net.packet import Frame
from repro.nic.driver import IgbDriver
from repro.nic.ring import RxRing


@dataclass
class NicStats(CounterStats):
    """DMA-side counters.

    ``merge``/``delta``/``snapshot`` come from :class:`CounterStats`, so
    per-shard rx counters reduce the same way :class:`CacheStats` does.
    """

    frames: int = 0
    blocks_written: int = 0
    oversize_dropped: int = 0
    #: Frames lost to injected rx-ring overflow (fault plan only).
    overflow_dropped: int = 0
    #: Receives delayed by an injected descriptor-refill stall.
    refill_stalled: int = 0


class Nic:
    """The adapter: accepts frames, DMAs them, and signals the driver."""

    def __init__(self, machine, ring: RxRing, driver: IgbDriver) -> None:
        self.machine = machine
        self.ring = ring
        self.driver = driver
        self.stats = NicStats()
        self._line = machine.llc.geometry.line_size

    def _dma_fill(self, base: int, n_blocks: int, now: int) -> None:
        """DMA every block of the frame into the cache hierarchy — the one
        place the fill loop lives (it used to be duplicated per tracer
        branch), now a single batched engine call."""
        paddrs, flats, lines = self.driver.templates.decomp(base)
        self.machine.llc.io_write_many(
            paddrs[:n_blocks],
            now=now,
            decomp=(flats[:n_blocks], lines[:n_blocks]),
        )

    def deliver(self, frame: Frame, now: int | None = None) -> None:
        """Receive one frame at cycle ``now`` (default: the current time).

        A burst passes the frame's arrival cycle, which the clock may
        already have passed.
        """
        if frame.size > self.ring.config.buffer_size:
            self.stats.oversize_dropped += 1
            return
        machine = self.machine
        faults = machine.faults
        if faults is not None and faults.should_overflow():
            # Injected rx-ring overflow: no free descriptor, the adapter
            # drops the frame on the floor — no DMA, no driver work.
            self.stats.overflow_dropped += 1
            return
        llc = machine.llc
        if now is None:
            now = machine.clock.now
        ring_slot = self.ring.head
        buffer = self.ring.advance()
        base = buffer.dma_paddr
        n_blocks = frame.n_blocks(self._line)
        tele = machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "dma-fill",
                cat="nic",
                args={
                    "slot": ring_slot,
                    "size": frame.size,
                    "blocks": n_blocks,
                    "ddio": llc.ddio.enabled,
                    "sim_now": now,
                },
            ):
                self._dma_fill(base, n_blocks, now)
        else:
            self._dma_fill(base, n_blocks, now)
        self.stats.frames += 1
        self.stats.blocks_written += n_blocks

        # An injected descriptor-refill stall delays the driver's receive
        # processing (softirq starvation / delayed refill), on top of the
        # no-DDIO I/O-to-driver latency when that applies.
        stall = faults.refill_stall() if faults is not None else 0
        if stall:
            self.stats.refill_stalled += 1
        if llc.ddio.enabled and not stall:
            # Interrupt + driver processing happen effectively at arrival
            # (the driver runs on another core; its accesses are immediate).
            self.driver.receive(frame, buffer, ring_slot, now)
        else:
            # The driver sees the frame only after the I/O-write-to-read
            # latency; schedule the receive on the event queue.
            delay = stall
            if not llc.ddio.enabled:
                delay += machine.llc.timing.io_to_driver_latency
            machine.events.schedule(
                now + delay,
                lambda f=frame, b=buffer, s=ring_slot: self.driver.receive(f, b, s),
                label=f"rx-intr#{frame.frame_id}",
            )

    # ------------------------------------------------------------------
    # Cross-frame burst delivery
    # ------------------------------------------------------------------
    def can_batch(self) -> bool:
        """Whether :meth:`deliver_burst` may batch cache work across frames:
        no fault plan (its drop and stall draws are per frame) and a cache
        policy the burst kernel models
        (:meth:`~repro.cache.llc.SlicedLLC.supports_rx_burst`)."""
        return self.machine.faults is None and self.machine.llc.supports_rx_burst()

    def deliver_burst(self, batch: list[tuple[int, "Frame"]]) -> None:
        """Deliver ``[(arrival_cycle, frame), ...]`` back-to-back.

        Used by a drained traffic source (``TrafficSource._drain``) when
        :meth:`can_batch` holds and nothing can observe the machine
        between the arrivals.  Phase 1 runs every frame's control flow in
        arrival order — ring advance, then the driver's
        :meth:`~repro.nic.driver.IgbDriver._prep` — none of which reads
        cache state.  Phase 2 applies the concatenated cache-op stream of
        all frames, each frame's folded from the driver's touch sequence
        (:meth:`~repro.nic.driver.IgbDriver._burst_template`), in one
        :meth:`~repro.cache.llc.SlicedLLC.rx_burst` engine call (a
        round-by-rank kernel, see
        :meth:`~repro.cache.engine.CacheEngine.rx_burst_apply`).

        A burst runs under one index mapping.  Frames are collected while
        their accesses fit in
        :meth:`~repro.cache.llc.SlicedLLC.accesses_until_rekey`; the frame
        that would reach a re-key is delivered on its own, after the
        frames before it, so the re-key fires at its exact access, and
        collection then starts again under the new mapping.  The final
        machine state is bit-identical to a loop of :meth:`deliver` —
        pinned by ``tests/test_rx_equivalence.py``.
        """
        i = 0
        while i < len(batch):
            i = self._burst(batch, i)
            if i < len(batch):
                at, frame = batch[i]
                self.deliver(frame, at)
                i += 1

    def _burst(self, batch: list[tuple[int, "Frame"]], start: int) -> int:
        """Collect ``batch[start:]`` while it fits in the accesses left
        before the next re-key, apply the collected frames in one
        ``rx_burst`` call, and return the index of the first frame left
        out (``len(batch)`` when all fit)."""
        driver = self.driver
        clock = self.machine.clock
        llc = self.machine.llc
        ring = self.ring
        buffer_size = ring.config.buffer_size
        stats = self.stats
        line = self._line
        templates = driver.templates
        template = driver._burst_template
        budget = llc.accesses_until_rekey()
        flat_parts: list[np.ndarray] = []
        line_parts: list[np.ndarray] = []
        kind_parts: list[np.ndarray] = []
        off_parts: list[np.ndarray] = []
        bases: list[int] = []
        lens: list[int] = []
        span_total = 0
        folded = 0
        stop = len(batch)
        for i in range(start, len(batch)):
            at, frame = batch[i]
            clock.advance_to(at)
            if frame.size > buffer_size:
                stats.oversize_dropped += 1
                continue
            n = frame.n_blocks(line)
            path = driver._path(frame)
            kinds_t, offs_t, span_t, folded_t, buf_ops = template(path, n)
            if span_total + span_t > budget:
                stop = i
                break
            ring_slot = ring.head
            buffer = ring.advance()
            _paddrs, flats, lines = templates.decomp(buffer.dma_paddr)
            stats.frames += 1
            stats.blocks_written += n
            skb = driver._prep(frame, path, buffer, ring_slot, at)
            flat_parts.append(flats[:buf_ops])
            line_parts.append(lines[:buf_ops])
            if skb is not None:
                skb_flats, skb_lines = templates.skb()
                flat_parts.append(skb_flats[skb])
                line_parts.append(skb_lines[skb])
            kind_parts.append(kinds_t)
            off_parts.append(offs_t)
            bases.append(span_total)
            lens.append(len(offs_t))
            span_total += span_t
            folded += folded_t
        if kind_parts:
            offs = np.concatenate(off_parts) + np.repeat(
                np.asarray(bases, dtype=np.int64), lens
            )
            llc.rx_burst(
                np.concatenate(flat_parts),
                np.concatenate(line_parts),
                np.concatenate(kind_parts),
                offs,
                span_total,
                folded,
            )
        return stop
