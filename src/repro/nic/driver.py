"""Model of the IGB driver's receive path (Figs. 3 and 4 of the paper).

The driver runs on its own core: its memory accesses hit the shared LLC at
the simulated instant they occur but do not advance the global clock (which
is driven by the process under observation, usually the spy).

Receive-path behaviour reproduced here:

* **Header prefetch** — the driver always reads the first two cache blocks
  of the buffer, regardless of frame size.  This is why 1-block packets
  still produce activity on block 1 (Fig. 8's one anomaly).
* **Small frames** (<= ``copy_threshold``): ``igb_add_rx_frag`` memcpys the
  payload into the skb, reading every block of the frame, and reuses the
  buffer as-is — unless the page is on a remote NUMA node, in which case it
  is released and a fresh buffer allocated.
* **Large frames**: the half-page is attached to the skb as a fragment;
  ``igb_can_reuse_rx_page`` flips ``page_offset`` to the other half unless
  the page is remote or still shared with the stack (rare), in which case
  the buffer is replaced.
* **Broadcast/unknown protocol**: discarded right after the header check —
  no skb, no flip — yet the payload already sits in the LLC if DDIO wrote
  it there, which is what makes the covert channel stealthy.

Each receive is described once.  :meth:`IgbDriver._path` picks its path,
:meth:`IgbDriver._prep` runs its control flow (stats, receive log, skb
cursor, page flip or replacement, randomizer), none of which reads cache
state; :meth:`IgbDriver._reads`
lists the buffer blocks it reads, in order, and
:meth:`IgbDriver._skb_count` the skb lines it writes.  Per-frame
:meth:`IgbDriver.receive` issues that sequence as batched
:meth:`~repro.cache.llc.SlicedLLC.access_many` calls over the buffer's
precomputed decomposition (:class:`RxTemplates`); the NIC's cross-frame
burst path folds the same sequence into a footprint-op template
(:meth:`IgbDriver._burst_template`).  The scalar original is frozen in
:mod:`repro.nic.legacy` and pinned bit-identical by
``tests/test_rx_equivalence.py``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from repro.core.config import RingConfig
from repro.core.counters import CounterStats
from repro.net.packet import Frame
from repro.nic.ring import RxBuffer, RxRing


@dataclass
class DriverStats(CounterStats):
    """Receive-path counters.

    ``merge``/``delta``/``snapshot`` come from :class:`CounterStats`, so
    per-shard rx counters reduce the same way :class:`CacheStats` does.
    """

    frames: int = 0
    discarded: int = 0
    copied: int = 0
    fragged: int = 0
    page_flips: int = 0
    buffers_replaced: int = 0


@dataclass
class ReceiveRecord:
    """Ground-truth log entry for one received frame (experiment use only —
    nothing attacker-visible lives here)."""

    time: int
    ring_slot: int
    page_paddr: int
    dma_paddr: int
    n_blocks: int
    size: int
    symbol: int | None = None


class RxTemplates:
    """Block-address templates for the batched rx datapath.

    An rx buffer is a fixed run of consecutive cache lines, so every touch
    sequence the NIC and driver issue against it — the DMA fill, the
    driver's reads — is an index into one precomputed decomposition of
    ``base + [0, line, 2*line, ...]``.  The template is computed once per
    buffer base address and shared by the NIC and the driver; the cache is
    bounded because the randomization defenses replace buffer pages
    continuously.  The skb slab's decomposition is kept here too.

    Every decomposition holds under one index mapping, so all of them are
    tagged with the LLC's ``mapping_epoch``: on the first use after a
    re-key they are recomputed together, in one
    :meth:`~repro.cache.llc.SlicedLLC.decompose_many` call.
    """

    _MAX_ENTRIES = 4096

    __slots__ = ("llc", "offsets", "_skb_paddrs", "_skb", "_cache", "_epoch")

    def __init__(self, llc, buffer_size: int, skb_paddrs: np.ndarray) -> None:
        self.llc = llc
        line = llc.geometry.line_size
        self.offsets = np.arange(buffer_size // line, dtype=np.int64) * line
        self._skb_paddrs = skb_paddrs
        self._skb = llc.decompose_many(skb_paddrs)
        self._cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._epoch = llc.mapping_epoch

    def _refresh(self) -> None:
        """Recompute every decomposition under the current mapping."""
        entries = list(self._cache.items())
        n_skb = len(self._skb_paddrs)
        width = len(self.offsets)
        flats, lines = self.llc.decompose_many(
            np.concatenate([self._skb_paddrs, *(p for _b, (p, _f, _l) in entries)])
        )
        self._skb = flats[:n_skb], lines[:n_skb]
        for i, (base, (paddrs, _f, _l)) in enumerate(entries):
            lo = n_skb + i * width
            self._cache[base] = (paddrs, flats[lo : lo + width], lines[lo : lo + width])
        self._epoch = self.llc.mapping_epoch

    def skb(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flats, lines)`` of every skb slab line, in slab order."""
        if self._epoch != self.llc.mapping_epoch:
            self._refresh()
        return self._skb

    def decomp(self, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(paddrs, flats, lines)`` arrays for every block of the buffer
        at ``base``; slice before use."""
        if self._epoch != self.llc.mapping_epoch:
            self._refresh()
        entry = self._cache.get(base)
        if entry is None:
            if len(self._cache) >= self._MAX_ENTRIES:
                self._cache.clear()
            paddrs = base + self.offsets
            flats, lines = self.llc.decompose_many(paddrs)
            entry = (paddrs, flats, lines)
            self._cache[base] = entry
        return entry


class IgbDriver:
    """The driver half of the receive path."""

    _PATH_BCAST, _PATH_COPY, _PATH_FRAG = 0, 1, 2

    def __init__(
        self,
        machine,
        ring: RxRing,
        config: RingConfig | None = None,
        shared_page_prob: float = 0.0,
        log_receives: bool = False,
        rng: random.Random | None = None,
    ) -> None:
        self.machine = machine
        self.ring = ring
        self.config = config or ring.config
        self.shared_page_prob = shared_page_prob
        self.stats = DriverStats()
        self.rng = rng or random.Random(17)
        self.local_node = ring.node
        self.log_receives = log_receives
        self.receive_log: list[ReceiveRecord] = []
        #: Optional randomization defense (see repro.defense.randomization).
        self.randomizer = None
        self._line = machine.llc.geometry.line_size
        # skb slab: a modest recycled kernel region the copy path writes to.
        # The region is fixed at driver init, so its translation is
        # precomputed once and indexed per write.
        self._skb_region = machine.kernel.mmap(16)
        self._skb_cursor = 0
        self._skb_lines = 16 * machine.physmem.page_size // self._line
        translate = machine.kernel.translate
        line = self._line
        region = self._skb_region
        self._skb_paddrs = np.fromiter(
            (translate(region + i * line) for i in range(self._skb_lines)),
            np.int64,
            count=self._skb_lines,
        )
        #: Buffer and skb slab decompositions, shared with the NIC.
        self.templates = RxTemplates(
            machine.llc, self.config.buffer_size, self._skb_paddrs
        )

    # ------------------------------------------------------------------
    # What one receive does
    # ------------------------------------------------------------------
    @staticmethod
    @functools.cache
    def _reads(path: int, n: int) -> np.ndarray:
        """Buffer blocks a ``path`` frame of ``n`` blocks reads, in order.

        Every receive reads the header and prefetches block 1, even for a
        one-block frame.  A copy then reads every frame block into the
        skb; a fragment hands the rest of the payload (blocks 2 and up) to
        the stack.  A broadcast reads nothing more.
        """
        if path == IgbDriver._PATH_COPY:
            blocks = [0, 1, *range(n)]
        elif path == IgbDriver._PATH_FRAG:
            blocks = [0, 1, *range(2, n)]
        else:
            blocks = [0, 1]
        reads = np.array(blocks, dtype=np.intp)
        reads.flags.writeable = False  # cached: shared by every receive
        return reads

    @staticmethod
    def _skb_count(path: int, n: int) -> int:
        """skb lines a ``path`` frame of ``n`` blocks writes: the copied
        frame, or a fragment's metadata only (its payload stays in the
        page)."""
        if path == IgbDriver._PATH_COPY:
            return n
        return 2 if path == IgbDriver._PATH_FRAG else 0

    @staticmethod
    @functools.cache
    def _burst_template(path: int, n: int) -> tuple:
        """Footprint-op template for one received frame: ``(kinds,
        final_offs, span, folded_hits, buf_ops)``.

        Folded mechanically from the frame's sequential cache-op stream —
        DMA fills of blocks ``0..n-1``, then :meth:`_reads`, then the skb
        writes — where each op is one LRU tick.  Each buffer line becomes
        one op, in block order: kind 0 if the frame filled it, 1 if the
        driver only reads it; each skb write is an op of kind 2.
        ``final_offs`` stamps every op at its line's last position in the
        stream.  A line's re-touches cannot miss (the frame's other
        buffer lines sit in other sets, and the skb writes come after), so
        they are counted in ``folded_hits`` instead.  ``span`` is the
        frame's total tick count and ``buf_ops`` its number of buffer ops;
        the touched blocks are always ``0..buf_ops-1``.
        """
        stream = [*range(n), *IgbDriver._reads(path, n).tolist()]
        last = {block: pos for pos, block in enumerate(stream)}
        blocks = sorted(last)
        assert blocks == list(range(len(blocks)))
        span = len(stream)
        n_skb = IgbDriver._skb_count(path, n)
        kinds = np.array(
            [0 if block < n else 1 for block in blocks] + [2] * n_skb, dtype=np.uint8
        )
        offs = np.array(
            [last[block] for block in blocks] + list(range(span, span + n_skb)),
            dtype=np.int64,
        )
        kinds.flags.writeable = offs.flags.writeable = False  # cached, shared
        return kinds, offs, span + n_skb, span - len(blocks), len(blocks)

    def _path(self, frame: Frame) -> int:
        """Which receive a frame takes: broadcast, copy or fragment.  Both
        delivery paths decide it first: a burst needs it to size the
        frame's cache work before running the frame."""
        if frame.is_broadcast():
            return self._PATH_BCAST
        if frame.size <= self.config.copy_threshold:
            return self._PATH_COPY
        return self._PATH_FRAG

    def _prep(
        self, frame: Frame, path: int, buffer: RxBuffer, ring_slot: int, now: int
    ) -> slice | np.ndarray | None:
        """The control flow of a ``path`` receive: stats, receive log, skb
        cursor, page flip or replacement, randomizer.

        None of it reads cache state, so both delivery paths run it before
        the frame's cache touches.  It may flip or replace ``buffer``: take
        its address first.  Returns the slab lines the frame writes to its
        skb (a slice, or an index array when the cursor wraps; None for a
        broadcast, which builds no skb).
        """
        n = frame.n_blocks(self._line)
        self.stats.frames += 1
        if self.log_receives:
            self.receive_log.append(
                ReceiveRecord(
                    time=now,
                    ring_slot=ring_slot,
                    page_paddr=buffer.page_paddr,
                    dma_paddr=buffer.dma_paddr,
                    n_blocks=n,
                    size=frame.size,
                    symbol=frame.symbol,
                )
            )
        skb = None
        if path == self._PATH_BCAST:
            self.stats.discarded += 1
        elif path == self._PATH_COPY:
            self.stats.copied += 1
            skb = self._skb_take(self._skb_count(path, n))
            if buffer.node != self.local_node:
                # Remote page: put_page + fresh allocation (cannot be reused).
                self._replace(buffer)
        else:
            self.stats.fragged += 1
            skb = self._skb_take(self._skb_count(path, n))
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
        if self.randomizer is not None:
            self.randomizer.on_packet(self, buffer)
        return skb

    def _skb_take(self, n_lines: int) -> slice | np.ndarray:
        """Advance the recycled skb slab's cursor by ``n_lines``; returns
        the slab indices of the lines passed over."""
        wrap = self._skb_lines
        start = self._skb_cursor % wrap
        self._skb_cursor += n_lines
        if start + n_lines <= wrap:
            return slice(start, start + n_lines)
        return np.arange(start, start + n_lines) % wrap

    # ------------------------------------------------------------------
    # Per-frame receive
    # ------------------------------------------------------------------
    def receive(
        self, frame: Frame, buffer: RxBuffer, ring_slot: int, now: int | None = None
    ) -> None:
        """Process one frame that the NIC has DMA'd into ``buffer``, at
        cycle ``now`` (default: the current time)."""
        if now is None:
            now = self.machine.clock.now
        tele = self.machine.telemetry
        if tele is not None and tele.tracer.enabled:
            with tele.tracer.span(
                "driver-rx",
                cat="driver",
                args={
                    "slot": ring_slot,
                    "size": frame.size,
                    "blocks": frame.n_blocks(self._line),
                    "sim_now": now,
                },
            ):
                self._receive(frame, buffer, ring_slot, now)
            return
        self._receive(frame, buffer, ring_slot, now)

    def _receive(
        self, frame: Frame, buffer: RxBuffer, ring_slot: int, now: int
    ) -> None:
        machine = self.machine
        llc = machine.llc
        base = buffer.dma_paddr  # before _prep flips or replaces the buffer
        path = self._path(frame)
        skb = self._prep(frame, path, buffer, ring_slot, now)
        if path == self._PATH_BCAST:
            # A broadcast reads blocks 0 and 1 only: two scalar accesses beat
            # the batch setup cost on this (covert channel) hot path.
            llc.cpu_access(base, now=now)
            llc.cpu_access(base + self._line, now=now)
            return
        paddrs, flats, lines = self.templates.decomp(base)
        reads = self._reads(path, frame.n_blocks(self._line))
        deferred = None
        if path == self._PATH_FRAG and not llc.ddio.enabled:
            # Without DDIO the stack touches the payload noticeably after
            # the header (Huggahalli et al.: < 20k cycles) — the lag that
            # makes size detection of large packets noisier (Section IV-d).
            reads, deferred = reads[:2], reads[2:]
        llc.access_many(paddrs[reads], now=now, decomp=(flats[reads], lines[reads]))
        skb_flats, skb_lines = self.templates.skb()
        llc.access_many(
            self._skb_paddrs[skb],
            write=True,
            now=now,
            decomp=(skb_flats[skb], skb_lines[skb]),
        )
        if deferred is not None:

            def touch_payload(
                p=paddrs[deferred], d=(flats[deferred], lines[deferred])
            ) -> None:
                llc.access_many(p, now=machine.clock.now, decomp=d)

            machine.events.schedule(
                now + llc.timing.payload_touch_delay, touch_payload, label="payload"
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
