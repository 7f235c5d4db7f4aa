"""What the hot-path bench's rx ratios time.

Each rx ratio divides the frozen rx datapath's time by the batched one's.
If the frozen NIC drove the live LLC, a faster scalar engine would speed
up the denominator too and read as an rx regression, so the frozen
machine carries the frozen LLC as well.  The gated ratio,
``rx_short_speedup``, must time the burst path in the short bursts every
experiment makes: if its stream drifted onto the per-frame path, or into
long bursts, the gate would no longer cover what the experiments run.
"""

from __future__ import annotations

from reference.bench import _bench_rx_short, _rx_machine
from reference.cache import LegacySlicedLLC
from reference.nic import LegacyNic
from repro.cache.llc import SlicedLLC
from repro.net.packet import Frame
from repro.nic.nic import Nic


def test_rx_machines_carry_their_own_llc():
    legacy = _rx_machine(legacy=True)
    assert type(legacy.llc) is LegacySlicedLLC
    assert isinstance(legacy.nic, LegacyNic)
    legacy.nic.deliver(Frame(size=1514, protocol="tcp"))
    assert legacy.llc.stats.io_fills > 0  # the frozen NIC fills the frozen LLC
    batched = _rx_machine(legacy=False)
    assert type(batched.llc) is SlicedLLC
    assert isinstance(batched.nic, Nic)


def test_short_stream_takes_the_burst_path_in_short_bursts(monkeypatch):
    frames: list[int] = []
    ops: list[int] = []
    singles: list[Frame] = []
    deliver_burst, rx_burst, deliver = Nic.deliver_burst, SlicedLLC.rx_burst, Nic.deliver

    def counted_burst(nic, batch):
        frames.append(len(batch))
        return deliver_burst(nic, batch)

    def counted_rx_burst(llc, lines, *rest):
        ops.append(len(lines))
        return rx_burst(llc, lines, *rest)

    def counted_deliver(nic, frame, *rest):
        singles.append(frame)
        return deliver(nic, frame, *rest)

    monkeypatch.setattr(Nic, "deliver_burst", counted_burst)
    monkeypatch.setattr(SlicedLLC, "rx_burst", counted_rx_burst)
    monkeypatch.setattr(Nic, "deliver", counted_deliver)
    n_frames = 1000
    _bench_rx_short(legacy=False, n_frames=n_frames)
    # The timed frames and the untimed tenth that warms the machine.
    assert sum(frames) == n_frames + n_frames // 10 and not singles
    assert len(ops) == len(frames)  # one engine call per burst
    assert max(ops) <= 50, max(ops)
