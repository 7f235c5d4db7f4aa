"""The hot-path bench's rx denominator runs only frozen code.

``rx_speedup`` divides the batched rx datapath's time by the frozen one's.
If the frozen NIC drove the live LLC, a faster scalar engine would speed
up the denominator too and read as an rx regression, so the frozen
machine carries the frozen LLC as well.
"""

from __future__ import annotations

from reference.bench import _rx_machine
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
