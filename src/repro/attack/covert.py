"""The Packet Chasing covert channel (Section IV of the paper).

A remote **trojan** encodes symbols in the *sizes* of broadcast frames; the
local **spy**, with no network access, decodes them from cache activity on
the sets backing chosen rx buffers:

* symbol 0 -> 64 B frames (1 block: only blocks 0/1 light up),
* symbol 1 -> 192 B frames (3 blocks: block 2 lights up) [ternary only],
* symbol 1/2 -> 256 B frames (4 blocks: blocks 2 and 3 light up).

Because every frame cycles the ring by one slot, sending ``ring_size``
equal-size frames delivers exactly one frame — and hence one symbol — to a
chosen buffer.  Block 0 of that buffer acts as the clock; blocks 2 and 3
carry the data (Fig. 10).  Monitoring ``n`` buffers spaced ``ring/n`` apart
multiplies the rate (Fig. 12a/b); chasing the full sequence delivers one
symbol *per packet* (Fig. 12c/d).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.analysis.capacity import ChannelReport, evaluate_channel
from repro.attack.chase import PacketChaser
from repro.attack.evictionset import EvictionSet, prime_sets
from repro.attack.primeprobe import SetSweep
from repro.net.traffic import PatternStream

#: Frame size (bytes) per symbol, by alphabet size.
SYMBOL_SIZES: dict[int, dict[int, int]] = {
    2: {0: 64, 1: 256},
    3: {0: 64, 1: 192, 2: 256},
}


def frame_size_for(symbol: int, alphabet: int) -> int:
    """Frame size that encodes ``symbol`` in the given alphabet."""
    try:
        return SYMBOL_SIZES[alphabet][symbol]
    except KeyError:
        raise ValueError(
            f"symbol {symbol} not encodable in alphabet {alphabet}"
        ) from None


def symbol_from_blocks(b2_active: bool, b3_active: bool, alphabet: int) -> int:
    """Decode one symbol from block-2/block-3 activity."""
    if alphabet == 2:
        return 1 if (b2_active and b3_active) else 0
    if b3_active:
        return 2
    if b2_active:
        return 1
    return 0


@dataclass
class StreamMonitors:
    """The spy's probe sets for one monitored buffer: clock + two data sets.

    The paper probes the buffer's first, third and fourth blocks — block 1
    is useless for data because the driver prefetches it for every packet.
    """

    clock: EvictionSet
    block2: EvictionSet
    block3: EvictionSet

    def sets(self) -> list[EvictionSet]:
        return [self.clock, self.block2, self.block3]


class CovertTrojan:
    """Remote sender: turns a symbol stream into a broadcast frame schedule."""

    def __init__(
        self,
        alphabet: int = 2,
        ring_size: int = 256,
        n_streams: int = 1,
        rate_pps: float = 500_000.0,
        reorder_prob: float = 0.0,
        protocol: str = "broadcast",
        rng: random.Random | None = None,
    ) -> None:
        if alphabet not in SYMBOL_SIZES:
            raise ValueError(f"unsupported alphabet {alphabet}")
        if n_streams < 1 or ring_size % n_streams:
            raise ValueError("n_streams must divide ring_size")
        self.alphabet = alphabet
        self.ring_size = ring_size
        self.n_streams = n_streams
        self.rate_pps = rate_pps
        self.reorder_prob = reorder_prob
        #: With DDIO, undeliverable broadcasts suffice (stealthiest).
        #: Without DDIO the payload only enters the cache when the stack
        #: processes it, so the trojan must send frames the host handles
        #: (Section IV-d's discussion).
        self.protocol = protocol
        self.rng = rng or random.Random(23)

    @property
    def packets_per_symbol(self) -> int:
        """Frames the trojan must send per symbol (ring advance distance)."""
        return self.ring_size // self.n_streams

    def build_stream(self, symbols: list[int]) -> PatternStream:
        """Pattern stream delivering ``symbols`` (padded to whole cycles)."""
        per = self.packets_per_symbol
        sizes: list[int] = []
        tags: list[int] = []
        for symbol in symbols:
            size = frame_size_for(symbol, self.alphabet)
            sizes.extend([size] * per)
            tags.extend([symbol] * per)
        if self.reorder_prob > 0:
            self._inject_reordering(sizes, tags)
        return PatternStream(
            sizes, rate_pps=self.rate_pps, symbols=tags, protocol=self.protocol
        )

    def _inject_reordering(self, sizes: list[int], tags: list[int]) -> None:
        """Swap adjacent frames with probability ``reorder_prob`` — the
        out-of-order arrivals that appear once the send rate approaches line
        rate (the error jump at 640 kbps in Fig. 12d)."""
        for i in range(len(sizes) - 1):
            if self.rng.random() < self.reorder_prob:
                sizes[i], sizes[i + 1] = sizes[i + 1], sizes[i]
                tags[i], tags[i + 1] = tags[i + 1], tags[i]


@dataclass
class DecodedSymbol:
    """One symbol the spy decoded."""

    time: int
    stream: int
    symbol: int


class CovertReceiver:
    """Local spy: decodes symbols from buffer-set activity.

    For each monitored stream, a window of ``window`` samples opens when the
    clock set fires; block-2/3 activity anywhere in the window decides the
    symbol (wide peaks may straddle two samples — the paper uses the same
    three-sample window).
    """

    def __init__(
        self,
        process,
        streams: list[StreamMonitors],
        window: int = 3,
        supervisor=None,
    ) -> None:
        if not streams:
            raise ValueError("no stream monitors")
        self.process = process
        self.streams = list(streams)
        self.window = window
        #: Optional :class:`~repro.attack.adaptive.AdaptiveSupervisor`.
        #: Saturated probe streams (drifted threshold) trigger online
        #: recalibration; dark streams (remapped buffers) trigger a heal;
        #: after either, the receiver re-locks: windows reset, monitors
        #: re-primed, decoding resumes on the next clock edge.
        self.supervisor = supervisor
        if supervisor is not None:
            for stream in self.streams:
                supervisor.track(*stream.sets())

    def _sets(self) -> list[EvictionSet]:
        """Every stream's clock/b2/b3 sets, in stream order."""
        return [es for stream in self.streams for es in stream.sets()]

    def _sweep(self) -> SetSweep:
        """One batched probe covering every stream's clock/b2/b3 sets, in
        the exact per-stream order the scalar loop probed them."""
        return SetSweep(self.process, self._sets())

    def listen(
        self,
        n_symbols: int,
        wait_cycles: int,
        max_samples: int | None = None,
        alphabet: int = 2,
    ) -> list[DecodedSymbol]:
        """Probe until ``n_symbols`` are decoded (or the sample budget ends).

        Each sample is one batched :class:`SetSweep` probe over all
        ``3 * n_streams`` monitored sets (cycle- and telemetry-identical
        to the historical per-set probe loop), and the per-stream window
        state machine advances as array operations; the decode order —
        stream index ascending within a sample — matches the scalar loop,
        pinned against ``legacy_decode_activity`` in
        ``tests/test_analysis_equivalence.py``.
        """
        machine = self.process.machine
        prime_sets(self.process, self._sets())
        sweep = self._sweep()
        # Per-stream open windows: remaining samples, accumulated activity.
        n_streams = len(self.streams)
        countdown = np.zeros(n_streams, dtype=np.int64)
        b2_seen = np.zeros(n_streams, dtype=bool)
        b3_seen = np.zeros(n_streams, dtype=bool)
        decoded: list[DecodedSymbol] = []
        budget = max_samples if max_samples is not None else 50 * n_symbols + 1000
        for _ in range(budget):
            if len(decoded) >= n_symbols:
                break
            if wait_cycles:
                machine.idle(wait_cycles)
            now = machine.clock.now
            active = sweep.probe() > 0
            clock = active[0::3]
            b2 = active[1::3]
            b3 = active[2::3]
            open_window = countdown > 0
            b2_seen |= open_window & b2
            b3_seen |= open_window & b3
            countdown[open_window] -= 1
            closing = open_window & (countdown == 0)
            opening = ~open_window & clock
            countdown[opening] = self.window - 1
            b2_seen[opening] = b2[opening]
            b3_seen[opening] = b3[opening]
            decode = closing | opening if self.window == 1 else closing
            for k in np.nonzero(decode)[0]:
                decoded.append(
                    DecodedSymbol(
                        time=now,
                        stream=int(k),
                        symbol=symbol_from_blocks(
                            bool(b2_seen[k]), bool(b3_seen[k]), alphabet
                        ),
                    )
                )
            if self.supervisor is not None:
                event = self.supervisor.observe(int(active.sum()), 3 * n_streams)
                if event is not None:
                    self._relock(event, countdown, b2_seen, b3_seen)
                    sweep = self._sweep()
        decoded.sort(key=lambda d: d.time)
        return decoded

    def _relock(self, event, countdown, b2_seen, b3_seen) -> None:
        """Re-acquire the channel after a recovery: swap in healed
        monitors (if any), abandon open decode windows, re-prime."""
        if event.kind == "heal" and event.payload:
            self.streams = list(event.payload)
            self.supervisor.untrack_all()
            for stream in self.streams:
                self.supervisor.track(*stream.sets())
        countdown[:] = 0
        b2_seen[:] = False
        b3_seen[:] = False
        prime_sets(self.process, self._sets())


def run_covert_channel(
    machine,
    spy_receiver: CovertReceiver,
    trojan: CovertTrojan,
    symbols: list[int],
    wait_cycles: int,
    max_samples: int | None = None,
) -> ChannelReport:
    """End-to-end channel run: send ``symbols``, decode, score.

    Returns the paper's metrics: bandwidth from elapsed simulated time and
    error rate from edit distance (Section IV-a methodology).
    """
    stream = trojan.build_stream(symbols)
    start = machine.clock.now
    stream.attach(machine, machine.nic)
    decoded = spy_receiver.listen(
        len(symbols),
        wait_cycles,
        max_samples=max_samples,
        alphabet=trojan.alphabet,
    )
    stream.stop()
    elapsed = machine.clock.seconds(machine.clock.now - start)
    # The spy may give up before the trojan finishes transmitting; the
    # channel cannot be faster than the wire time of the full frame train.
    frame_size = frame_size_for(max(SYMBOL_SIZES[trojan.alphabet]), trojan.alphabet)
    per_frame = max(
        1.0 / trojan.rate_pps,
        machine.config.link.frame_time_seconds(frame_size),
    )
    send_duration = len(symbols) * trojan.packets_per_symbol * per_frame
    elapsed = max(elapsed, send_duration)
    received = [d.symbol for d in decoded]
    return evaluate_channel(symbols, received, elapsed, trojan.alphabet)


def run_chasing_channel(
    machine,
    chaser: PacketChaser,
    trojan: CovertTrojan,
    symbols: list[int],
    timeout_cycles: int,
    poll_wait: int = 0,
) -> tuple[ChannelReport, float]:
    """Full-sequence channel: one symbol per packet (Fig. 12c/d).

    The trojan is configured with ``n_streams == ring_size`` so each frame
    carries one symbol.  Returns (report, out_of_sync_rate).
    """
    if trojan.packets_per_symbol != 1:
        raise ValueError("chasing channel needs one packet per symbol")
    chaser.prime_all()
    stream = trojan.build_stream(symbols)
    start = machine.clock.now
    stream.attach(machine, machine.nic)
    result = chaser.chase(
        len(symbols), timeout_cycles, poll_wait=poll_wait, prime=False
    )
    stream.stop()
    elapsed = machine.clock.seconds(machine.clock.now - start)
    received = [size_to_symbol(s, trojan.alphabet) for s in result.sizes]
    report = evaluate_channel(symbols, received, elapsed, trojan.alphabet)
    return report, result.out_of_sync_rate


def size_to_symbol(blocks: int, alphabet: int) -> int:
    """Inverse encoding: detected block count -> symbol."""
    if alphabet == 2:
        return 1 if blocks >= 4 else 0
    if blocks >= 4:
        return 2
    if blocks >= 3:
        return 1
    return 0
