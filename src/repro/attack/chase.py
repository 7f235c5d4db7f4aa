"""Packet chasing: following the ring buffer-to-buffer.

Once the spy knows (a) which cache sets host each buffer and (b) the order
in which buffers fill (:mod:`repro.attack.sequencer`), it stops scanning
256 sets and instead probes *only the next expected buffer* — the paper's
eponymous technique.  Each detected fill also reveals the packet's size in
cache-block granularity by probing the buffer's subsequent blocks, on both
page halves (the driver flips halves for large packets, Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attack.evictionset import EvictionSet
from repro.attack.primeprobe import SetSweep
from repro.telemetry.quality import quality_registry, record_chase


@dataclass
class BufferMonitor:
    """Probe-ready eviction sets for one rx buffer.

    ``blocks`` maps block number (0..3) to the eviction set covering that
    block in the *first* half-page; ``alt_blocks`` covers the second half
    (offset +2048), which the driver switches to after handing a large
    packet's half to the stack.
    """

    name: str
    blocks: dict[int, EvictionSet]
    alt_blocks: dict[int, EvictionSet] = field(default_factory=dict)
    #: Lazily-built batched sweeps: the clock probe (block 0 of both
    #: halves) and the size probe (non-zero blocks of both halves) each
    #: go out as one machine call instead of one per set.
    _clock_sweep: SetSweep | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _size_sweep: SetSweep | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _size_splits: tuple[np.ndarray, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if 0 not in self.blocks:
            raise ValueError("BufferMonitor requires at least the block-0 set")

    def prime(self) -> None:
        for es in self.blocks.values():
            es.prime()
        for es in self.alt_blocks.values():
            es.prime()

    def clock_sweep(self) -> SetSweep:
        """The clock probe: block 0 of both halves as one sweep (cached)."""
        if self._clock_sweep is None:
            sets = [self.blocks[0]]
            if 0 in self.alt_blocks:
                sets.append(self.alt_blocks[0])
            self._clock_sweep = SetSweep(self.blocks[0].process, sets)
        return self._clock_sweep

    def clock_active(self) -> bool:
        """Probe block 0 of both halves; True if either saw a miss."""
        return bool((self.clock_sweep().probe() > 0).any())

    def read_size(self, cap: int = 4) -> int:
        """Packet size in blocks (1..cap), read from whichever half fired.

        Block 1 is ignored for sizing (the driver prefetches it for every
        packet), so sizes are 1, 3, 4... distinguished by blocks 2 and 3 —
        matching what the paper's spy can actually resolve.  Per half the
        size is the largest fired block number + 1, exactly what the
        scalar ascending-probe loop left behind.
        """
        if self._size_sweep is None:
            halves = [self.blocks]
            if self.alt_blocks:
                halves.append(self.alt_blocks)
            sets: list[EvictionSet] = []
            splits = []
            for half in halves:
                ks = [k for k in sorted(half) if k != 0]
                sets.extend(half[k] for k in ks)
                splits.append(np.asarray(ks, dtype=np.int64))
            self._size_splits = tuple(splits)
            self._size_sweep = SetSweep(self.blocks[0].process, sets) if sets else None
            if not sets:
                self._size_splits = ()
        size = 1
        if self._size_sweep is not None:
            fired = self._size_sweep.probe() > 0
            offset = 0
            for ks in self._size_splits:
                hit = ks[fired[offset : offset + ks.size]]
                if hit.size:
                    size = max(size, int(hit[-1]) + 1)
                offset += ks.size
        return min(size, cap)


@dataclass
class ChaseResult:
    """Outcome of a chasing session."""

    sizes: list[int]
    times: list[int]
    misses: int  # timeouts where the expected buffer never fired
    resyncs: int
    #: Miss count at the moment of the final successful detection — misses
    #: after that are just idle waiting once traffic stopped, and should not
    #: count against synchronisation quality.
    misses_while_active: int = 0

    @property
    def packets_seen(self) -> int:
        return len(self.sizes)

    @property
    def out_of_sync_rate(self) -> float:
        total = self.packets_seen + self.misses_while_active
        return self.misses_while_active / total if total else 0.0


class PacketChaser:
    """Follows the recovered buffer sequence, one buffer at a time."""

    def __init__(
        self,
        process,
        buffers: list[BufferMonitor],
        start: int = 0,
        supervisor=None,
    ) -> None:
        if not buffers:
            raise ValueError("no buffer monitors supplied")
        self.process = process
        self.buffers = list(buffers)
        self.position = start % len(buffers)
        #: Optional :class:`~repro.attack.adaptive.AdaptiveSupervisor`:
        #: consecutive timeouts past patience trigger a monitor heal
        #: (the ring's buffers were remapped out from under the spy).
        self.supervisor = supervisor

    def prime_all(self) -> None:
        for monitor in self.buffers:
            monitor.prime()

    def wait_for_fill(
        self, monitor: BufferMonitor, timeout_cycles: int, poll_wait: int = 0
    ) -> bool:
        """Poll a buffer's clock set until it fires or timeout elapses.

        Quiescent polls are fast-forwarded.  Between two pending events
        nothing but the spy touches its own lines, so once a poll found no
        fill, took exactly the all-hit time and saw no event fire, every
        further poll that starts before the deadline and ends before the
        next event is the same all-hit, no-fill poll.  Those are applied
        in one step (:meth:`SetSweep.fast_forward`, then the idle time),
        and exact polling resumes at the boundary.  Under an epochal
        backend the skipped accesses must also end before the next
        re-key.  An active fault plan draws timer jitter per access, so
        there every poll stays exact.
        """
        machine = self.process.machine
        clock = machine.clock
        events = machine.events
        llc = machine.llc
        deadline = clock.now + timeout_cycles
        sweep = monitor.clock_sweep() if machine.faults is None else None
        quiet = sweep.quiet_cycles() + poll_wait if sweep is not None else 0
        while clock.now < deadline:
            start = clock.now
            nxt = events.peek_time()
            if monitor.clock_active():
                return True
            if poll_wait:
                machine.idle(poll_wait)
            now = clock.now
            if sweep is None or now - start != quiet:
                continue
            # Repeats of this quiet poll that start before the deadline,
            # end before the next event and stay inside the epoch.  If an
            # event fired during the poll, ``nxt <= now`` makes k < 1.
            k = -((now - deadline) // quiet)
            if nxt is not None:
                k = min(k, (nxt - 1 - now) // quiet)
            k = min(k, llc.accesses_until_rekey() // sweep.n_accesses)
            if k > 0:
                sweep.fast_forward(k)
                clock.advance(k * poll_wait)
        return False

    def chase(
        self,
        n_packets: int,
        timeout_cycles: int,
        poll_wait: int = 0,
        size_cap: int = 4,
        size_wait: int = 0,
        prime: bool = True,
    ) -> ChaseResult:
        """Chase ``n_packets`` fills through the ring.

        On a timeout the chaser has lost the packet: it counts a miss and
        keeps waiting on the same buffer (the paper: "it has to wait until
        completion of the whole ring, or the next time a packet fills that
        buffer, to get synchronized again").
        """
        machine = self.process.machine
        if prime:
            self.prime_all()
        sizes: list[int] = []
        times: list[int] = []
        misses = 0
        misses_at_last_hit = 0
        resyncs = 0
        out_of_sync = False
        give_up = n_packets + 4 * len(self.buffers)
        while len(sizes) < n_packets:
            monitor = self.buffers[self.position]
            if self.wait_for_fill(monitor, timeout_cycles, poll_wait):
                if out_of_sync:
                    resyncs += 1
                    out_of_sync = False
                if self.supervisor is not None:
                    self.supervisor.note_hit()
                times.append(machine.clock.now)
                if size_wait:
                    # Without DDIO the payload enters the cache only when
                    # the stack touches it; the spy must delay its size read
                    # (and eat the extra noise that entails).
                    machine.idle(size_wait)
                sizes.append(monitor.read_size(cap=size_cap))
                misses_at_last_hit = misses
                self.position = (self.position + 1) % len(self.buffers)
                # Re-prime the next expected buffer: its sets were last
                # probed a full ring cycle ago and may hold stale I/O lines;
                # once a set holds two, further DDIO fills evict I/O lines
                # and become invisible.  Priming now flushes them so the
                # upcoming fill must displace one of our lines.
                self.buffers[self.position].prime()
            else:
                misses += 1
                if not out_of_sync:
                    out_of_sync = True
                if self.supervisor is not None:
                    event = self.supervisor.note_timeout()
                    if event is not None and event.kind == "heal" and event.payload:
                        # The ring's buffers were remapped out from under
                        # us (re-keying / re-randomization): swap in the
                        # rebuilt monitors and re-prime the lot.
                        self.buffers = list(event.payload)
                        self.position %= len(self.buffers)
                        self.prime_all()
                        continue
                # Stay on this buffer: the next fill of it re-synchronises.
                if misses > give_up:
                    break  # give up: traffic has evidently stopped
        result = ChaseResult(
            sizes=sizes,
            times=times,
            misses=misses,
            resyncs=resyncs,
            misses_while_active=misses_at_last_hit,
        )
        registry = quality_registry(machine.telemetry)
        if registry is not None:
            record_chase(registry, result)
        return result
