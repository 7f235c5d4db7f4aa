"""The NIC's DMA engine: frames land in the LLC (DDIO) or DRAM (no DDIO).

With DDIO (the default on the paper's platform), every cache block of an
incoming frame is written straight into the last-level cache at arrival
time, so header and payload appear simultaneously — the property that lets
the spy read packet *sizes*.  Without DDIO the frame is written to DRAM;
blocks only enter the cache when the driver reads the header (after an
I/O-to-driver latency) and when the stack touches the payload (later
still), which delays and blurs — but does not eliminate — the signal
(Section IV-d of the paper).

A frame delivered on its own is filled one block at a time
(:meth:`repro.cache.llc.SlicedLLC.io_write_many`, a loop of ``io_write``).
Frames that land back-to-back with nothing observing the machine in
between are delivered as a burst (:meth:`Nic.deliver_burst`): the driver's
one receive description — its control flow and its touch sequence — is run
per frame, and the whole burst's cache-op stream, as plain lists of line
addresses, kinds and stamp offsets, goes to one
:meth:`repro.cache.llc.SlicedLLC.rx_burst` call.  The LLC decomposes the
lines under its current mapping and applies them in one engine call, one
scalar pass in stream order
(:meth:`repro.cache.engine.CacheEngine.rx_burst_apply`).  The
pre-batching path is frozen in :mod:`reference.nic` and pinned
bit-identical by ``tests/test_rx_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        branch)."""
        end = base + n_blocks * self._line
        self.machine.llc.io_write_many(range(base, end, self._line), now=now)

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
        """The one burst gate: whether a drain may hand frames to
        :meth:`deliver_burst` at all.  It needs no fault plan (its drop
        and stall draws are per frame) and a cache policy the burst kernel
        models (:meth:`~repro.cache.llc.SlicedLLC.supports_rx_burst`);
        otherwise every frame goes through the event heap."""
        return self.machine.faults is None and self.machine.llc.supports_rx_burst()

    def deliver_burst(self, batch: list[tuple[int, "Frame"]]) -> None:
        """Deliver ``[(arrival_cycle, frame), ...]`` back-to-back.

        Used by a drained traffic source (``TrafficSource._drain``) when
        :meth:`can_batch` holds and nothing can observe the machine
        between the arrivals.  The drain has already moved the clock to
        the batch's last arrival, so no frame here moves it; each is
        delivered at its own arrival cycle.  Phase 1 runs every frame's
        control flow in arrival order — ring advance, then the driver's
        :meth:`~repro.nic.driver.IgbDriver._prep` — none of which reads
        cache state.  Phase 2 applies the concatenated cache-op stream of
        all frames, each frame's folded from the driver's touch sequence
        (:meth:`~repro.nic.driver.IgbDriver._burst_template`), in one
        :meth:`~repro.cache.llc.SlicedLLC.rx_burst` call (one pass in
        stream order, see
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
        out (``len(batch)`` when all fit).

        A frame's buffer ops touch its buffer's first ``buf_ops`` lines,
        in block order; its skb ops, the slab lines ``_prep`` hands back.
        """
        driver = self.driver
        llc = self.machine.llc
        ring = self.ring
        buffer_size = ring.config.buffer_size
        stats = self.stats
        line = self._line
        template = driver._burst_template
        budget = llc.accesses_until_rekey()
        lines: list[int] = []
        kinds: list[int] = []
        offs: list[int] = []
        span_total = 0
        folded = 0
        stop = len(batch)
        for i in range(start, len(batch)):
            at, frame = batch[i]
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
            first = buffer.dma_paddr // line
            stats.frames += 1
            stats.blocks_written += n
            skb = driver._prep(frame, path, buffer, ring_slot, at)
            lines.extend(range(first, first + buf_ops))
            if skb is not None:
                lines.extend(skb)
            kinds.extend(kinds_t)
            offs.extend([off + span_total for off in offs_t])
            span_total += span_t
            folded += folded_t
        if kinds:
            llc.rx_burst(lines, kinds, offs, span_total, folded)
        return stop
