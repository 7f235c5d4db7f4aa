"""Frozen scalar receive path: the pre-batching NIC and IGB driver.

These are verbatim copies of :class:`repro.nic.nic.Nic` and
:class:`repro.nic.driver.IgbDriver` as they stood before the rx datapath
moved onto the batched cache-engine kernels: one ``llc.io_write`` /
``llc.cpu_access`` Python call per cache block, in the exact order the
original code issued them.  They exist solely as the reference side of the
differential harness (``tests/test_rx_equivalence.py``) and the rx
benchmark (``repro.bench``), the same role :mod:`repro.cache.legacy` plays
for the cache engine.

Production code must not import this module (``tests/test_import_graph.py``
checks it); construct the frozen path via :func:`install_legacy_nic`.
"""

from __future__ import annotations

import random

from repro.core.config import RingConfig
from repro.net.packet import Frame
from repro.nic.ring import RxBuffer, RxRing


def install_legacy_nic(
    machine, shared_page_prob: float = 0.0, log_receives: bool = False, node: int = 0
) -> "LegacyNic":
    """Wire the frozen NIC and driver into ``machine`` in place of
    ``Machine.install_nic``, from the same ring and driver seeds.

    The frozen NIC has no burst path, so the machine's event loop is set
    to deliver every frame through the scalar per-event path.
    """
    nic = machine._wire_nic(
        LegacyIgbDriver, LegacyNic, shared_page_prob, log_receives, node
    )
    machine.allow_bursts = False
    return nic


class LegacyNic:
    """The pre-batching adapter: scalar per-block DMA writes."""

    def __init__(self, machine, ring: RxRing, driver: "LegacyIgbDriver") -> None:
        from repro.nic.nic import NicStats

        self.machine = machine
        self.ring = ring
        self.driver = driver
        self.stats = NicStats()
        self._line = machine.llc.geometry.line_size

    def deliver(self, frame: Frame) -> None:
        """Receive one frame at the current simulated time."""
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
                for i in range(n_blocks):
                    llc.io_write(base + i * self._line, now=now)
        else:
            for i in range(n_blocks):
                llc.io_write(base + i * self._line, now=now)
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
            self.driver.receive(frame, buffer, ring_slot)
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


class LegacyIgbDriver:
    """The pre-batching driver: scalar per-block touch sequences."""

    def __init__(
        self,
        machine,
        ring: RxRing,
        config: RingConfig | None = None,
        shared_page_prob: float = 0.0,
        log_receives: bool = False,
        rng: random.Random | None = None,
    ) -> None:
        from repro.nic.driver import DriverStats

        self.machine = machine
        self.ring = ring
        self.config = config or ring.config
        self.shared_page_prob = shared_page_prob
        self.stats = DriverStats()
        self.rng = rng or random.Random(17)
        self.local_node = ring.node
        self.log_receives = log_receives
        self.receive_log = []
        #: Optional randomization defense (see repro.defense.randomization).
        self.randomizer = None
        self._line = machine.llc.geometry.line_size
        # skb slab: a modest recycled kernel region the copy path writes to.
        self._skb_region = machine.kernel.mmap(16)
        self._skb_cursor = 0
        self._skb_lines = 16 * machine.physmem.page_size // self._line

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, frame: Frame, buffer: RxBuffer, ring_slot: int) -> None:
        """Process one frame that the NIC has DMA'd into ``buffer``."""
        tele = self.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "driver-rx",
                cat="driver",
                args={
                    "slot": ring_slot,
                    "size": frame.size,
                    "blocks": frame.n_blocks(self._line),
                    "sim_now": self.machine.clock.now,
                },
            ):
                self._receive(frame, buffer, ring_slot)
            return
        self._receive(frame, buffer, ring_slot)

    def _receive(self, frame: Frame, buffer: RxBuffer, ring_slot: int) -> None:
        from repro.nic.driver import ReceiveRecord

        llc = self.machine.llc
        now = self.machine.clock.now
        base = buffer.dma_paddr
        self.stats.frames += 1
        if self.log_receives:
            self.receive_log.append(
                ReceiveRecord(
                    time=now,
                    ring_slot=ring_slot,
                    page_paddr=buffer.page_paddr,
                    dma_paddr=base,
                    n_blocks=frame.n_blocks(self._line),
                    size=frame.size,
                    symbol=frame.symbol,
                )
            )
        # Header read + unconditional prefetch of the second block.
        llc.cpu_access(base, now=now)
        llc.cpu_access(base + self._line, now=now)

        if frame.is_broadcast():
            # Unknown protocol: dropped before any skb is built.
            self.stats.discarded += 1
            self._after_packet(buffer)
            return

        if frame.size <= self.config.copy_threshold:
            self._copy_small(frame, buffer)
        else:
            self._frag_large(frame, buffer)
        self._after_packet(buffer)

    def _copy_small(self, frame: Frame, buffer: RxBuffer) -> None:
        """memcpy path of igb_add_rx_frag: read frame, write into skb."""
        llc = self.machine.llc
        now = self.machine.clock.now
        base = buffer.dma_paddr
        n_blocks = frame.n_blocks(self._line)
        for i in range(n_blocks):
            llc.cpu_access(base + i * self._line, now=now)
        self._skb_write(n_blocks)
        self.stats.copied += 1
        if buffer.node != self.local_node:
            # Remote page: put_page + fresh allocation (cannot be reused).
            self._replace(buffer)

    def _frag_large(self, frame: Frame, buffer: RxBuffer) -> None:
        """Fragment path: hand the half-page to the stack, try to reuse."""
        llc = self.machine.llc
        now = self.machine.clock.now
        base = buffer.dma_paddr
        n_blocks = frame.n_blocks(self._line)
        if llc.ddio.enabled:
            # Payload is already cache-resident; the stack reads it now.
            for i in range(2, n_blocks):
                llc.cpu_access(base + i * self._line, now=now)
        else:
            # Without DDIO the stack touches the payload noticeably after
            # the header (Huggahalli et al.: < 20k cycles) — the lag that
            # makes size detection of large packets noisier (Section IV-d).
            delay = llc.timing.payload_touch_delay

            def touch_payload(base=base, n_blocks=n_blocks) -> None:
                later = self.machine.clock.now
                for i in range(2, n_blocks):
                    llc.cpu_access(base + i * self._line, now=later)

            self.machine.events.schedule(now + delay, touch_payload, label="payload")
        self._skb_write(2)  # skb metadata only; payload stays in the page
        self.stats.fragged += 1
        if buffer.node != self.local_node or self.rng.random() < self.shared_page_prob:
            self._replace(buffer)
        else:
            buffer.flip(self.config.buffer_size)
            self.stats.page_flips += 1
            tele = self.machine.telemetry
            if tele is not None and tele.tracer.enabled:
                tele.tracer.instant(
                    "page-flip",
                    cat="driver",
                    args={"slot": buffer.index, "offset": buffer.page_offset},
                )

    def _replace(self, buffer: RxBuffer) -> None:
        tele = self.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "driver-refill",
                cat="driver",
                args={
                    "reason": "replace",
                    "slot": buffer.index,
                    "sim_now": self.machine.clock.now,
                },
            ):
                self.ring.replace_buffer(buffer.index)
        else:
            self.ring.replace_buffer(buffer.index)
        self.stats.buffers_replaced += 1

    def _after_packet(self, buffer: RxBuffer) -> None:
        if self.randomizer is not None:
            self.randomizer.on_packet(self, buffer)

    # ------------------------------------------------------------------
    # skb slab
    # ------------------------------------------------------------------
    def _skb_write(self, n_lines: int) -> None:
        """Write ``n_lines`` cache lines of skb data (recycled slab)."""
        llc = self.machine.llc
        kernel = self.machine.kernel
        now = self.machine.clock.now
        base_vaddr = self._skb_region
        for _ in range(n_lines):
            vaddr = base_vaddr + (self._skb_cursor % self._skb_lines) * self._line
            llc.cpu_access(kernel.translate(vaddr), write=True, now=now)
            self._skb_cursor += 1
