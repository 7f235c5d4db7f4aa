"""Unit tests for the rx ring, DMA engine and IGB driver model."""

import pytest

from repro.net.packet import Frame
from repro.net.traffic import ConstantStream


class TestRxRing:
    def test_buffers_page_aligned(self, nic_machine):
        for buffer in nic_machine.ring.buffers:
            assert buffer.page_paddr % 4096 == 0
            assert buffer.page_offset == 0

    def test_advance_wraps(self, nic_machine):
        ring = nic_machine.ring
        n = len(ring)
        first = ring.next_buffer()
        for _ in range(n):
            ring.advance()
        assert ring.next_buffer() is first

    def test_fill_count_monotonic(self, nic_machine):
        ring = nic_machine.ring
        ring.advance()
        ring.advance()
        assert ring.fill_count == 2

    def test_replace_buffer_frees_old_page(self, nic_machine):
        ring = nic_machine.ring
        old = ring.buffers[3].page_paddr
        free_before = nic_machine.physmem.free_frames
        new = ring.replace_buffer(3)
        assert new.page_paddr != old
        assert nic_machine.physmem.free_frames == free_before

    def test_shuffle_changes_order_not_pages(self, nic_machine):
        ring = nic_machine.ring
        pages_before = set(ring.page_paddrs())
        order_before = ring.order_fingerprint()
        ring.shuffle_order()
        assert set(ring.page_paddrs()) == pages_before
        assert ring.order_fingerprint() != order_before

    def test_buffer_flip(self, nic_machine):
        buffer = nic_machine.ring.buffers[0]
        base = buffer.dma_paddr
        buffer.flip(2048)
        assert buffer.dma_paddr == base + 2048
        buffer.flip(2048)
        assert buffer.dma_paddr == base


class TestNicDma:
    def test_frame_blocks_land_in_llc(self, nic_machine):
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=256, protocol="broadcast"))
        llc = nic_machine.llc
        for k in range(4):
            assert llc.is_resident(buffer.page_paddr + k * 64)

    def test_blocks_written_counted(self, nic_machine):
        nic_machine.nic.deliver(Frame(size=192, protocol="broadcast"))
        assert nic_machine.nic.stats.blocks_written == 3

    def test_oversize_frame_dropped(self, nic_machine):
        nic_machine.nic.deliver(Frame(size=4000, protocol="broadcast"))
        assert nic_machine.nic.stats.oversize_dropped == 1
        assert nic_machine.ring.fill_count == 0

    def test_buffers_fill_in_ring_order(self, nic_machine):
        nic_machine.driver.log_receives = True
        for _ in range(5):
            nic_machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        slots = [r.ring_slot for r in nic_machine.driver.receive_log]
        assert slots == [0, 1, 2, 3, 4]

    def test_no_ddio_defers_driver_receive(self, scaled_config):
        from repro.core.config import DDIOConfig
        from repro.core.machine import Machine

        scaled_config.ddio = DDIOConfig(enabled=False)
        machine = Machine(scaled_config)
        machine.install_nic()
        machine.nic.deliver(Frame(size=64, protocol="tcp"))
        assert machine.driver.stats.frames == 0  # interrupt still pending
        machine.idle(machine.llc.timing.io_to_driver_latency + 1)
        assert machine.driver.stats.frames == 1


class TestIgbDriver:
    def test_broadcast_discarded_after_header(self, nic_machine):
        nic_machine.nic.deliver(Frame(size=1500, protocol="broadcast"))
        stats = nic_machine.driver.stats
        assert stats.discarded == 1
        assert stats.page_flips == 0  # no skb was built

    def test_small_packet_copied_buffer_reused(self, nic_machine):
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=128, protocol="tcp"))
        assert nic_machine.driver.stats.copied == 1
        assert buffer.page_offset == 0  # reused as-is

    def test_large_packet_flips_half_page(self, nic_machine):
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        assert nic_machine.driver.stats.fragged == 1
        assert buffer.page_offset == 2048

    def test_copy_threshold_boundary(self, nic_machine):
        threshold = nic_machine.config.ring.copy_threshold
        nic_machine.nic.deliver(Frame(size=threshold, protocol="tcp"))
        assert nic_machine.driver.stats.copied == 1
        nic_machine.nic.deliver(Frame(size=threshold + 1, protocol="tcp"))
        assert nic_machine.driver.stats.fragged == 1

    def test_header_prefetch_touches_block1(self, nic_machine):
        """Even a 1-block frame loads block 1 — the Fig. 8 anomaly."""
        buffer = nic_machine.ring.next_buffer()
        nic_machine.nic.deliver(Frame(size=64, protocol="broadcast"))
        assert nic_machine.llc.is_resident(buffer.page_paddr + 64)

    def test_one_block_fragment_prefetches_block1(self, scaled_config):
        """Below one cache line of copy threshold a 1-block frame takes the
        fragment path, and the header prefetch still loads block 1."""
        import dataclasses

        from repro.core.machine import Machine

        scaled_config.ring = dataclasses.replace(scaled_config.ring, copy_threshold=0)
        machine = Machine(scaled_config)
        machine.install_nic()
        buffer = machine.ring.next_buffer()
        block1 = buffer.dma_paddr + 64
        machine.nic.deliver(Frame(size=60, protocol="tcp"))
        assert machine.driver.stats.fragged == 1
        assert machine.llc.is_resident(block1)

    def test_shared_page_forces_replacement(self, scaled_config):
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(shared_page_prob=1.0)
        machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        assert machine.driver.stats.buffers_replaced == 1
        assert machine.driver.stats.page_flips == 0

    def test_receive_log_records_symbols(self, scaled_config):
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(log_receives=True)
        machine.nic.deliver(Frame(size=192, protocol="broadcast", symbol=1))
        record = machine.driver.receive_log[0]
        assert record.symbol == 1
        assert record.n_blocks == 3


class TestRxWraparound:
    def test_ring_wraparound_alternates_half_pages(self, scaled_config):
        """Across ring laps each buffer's DMA target alternates between the
        two 2 KB halves of its page (flip on every large-frame reuse)."""
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(log_receives=True)
        n = scaled_config.ring.n_descriptors
        for _ in range(3 * n):
            machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        log = machine.driver.receive_log
        assert len(log) == 3 * n
        for lap in range(3):
            for slot in range(n):
                rec = log[lap * n + slot]
                assert rec.ring_slot == slot
                assert rec.dma_paddr == rec.page_paddr + (lap % 2) * 2048
        assert machine.driver.stats.page_flips == 3 * n

    def test_small_copy_reuses_buffer_without_flip(self, scaled_config):
        """Small frames memcpy out of the buffer; across laps the same slot
        keeps DMA-ing into the same half-page (no flip, no replacement)."""
        from repro.core.machine import Machine

        machine = Machine(scaled_config)
        machine.install_nic(log_receives=True)
        n = scaled_config.ring.n_descriptors
        for _ in range(2 * n):
            machine.nic.deliver(Frame(size=128, protocol="tcp"))
        log = machine.driver.receive_log
        for slot in range(n):
            assert log[slot].dma_paddr == log[n + slot].dma_paddr
        stats = machine.driver.stats
        assert stats.copied == 2 * n
        assert stats.page_flips == 0
        assert stats.buffers_replaced == 0

    def test_small_copy_fills_skb_lines(self, nic_machine):
        """The copy path writes one skb line per frame block."""
        driver = nic_machine.driver
        start = driver._skb_cursor
        nic_machine.nic.deliver(Frame(size=256, protocol="tcp"))
        assert driver._skb_cursor - start == 4
        nic_machine.nic.deliver(Frame(size=64, protocol="tcp"))
        assert driver._skb_cursor - start == 5

    def test_skb_slab_cursor_wraps(self, nic_machine):
        """The recycled skb slab wraps rather than growing without bound."""
        driver = nic_machine.driver
        wrap = driver._skb_lines
        for _ in range(wrap // 4 + 8):
            nic_machine.nic.deliver(Frame(size=256, protocol="tcp"))
        assert driver._skb_cursor > wrap  # wrapped at least once
        # The slab footprint in the cache never exceeds the slab itself.
        line_size = nic_machine.llc.geometry.line_size
        resident = sum(
            1
            for line in driver._skb_slab
            if nic_machine.llc.is_resident(line * line_size)
        )
        assert 0 < resident <= wrap


class TestHeavyFaultRx:
    def test_heavy_fault_stream_is_sane(self):
        """The batched datapath under the heavy fault profile: drops,
        stalls and co-runner noise engage, nothing wedges or miscounts."""
        import random

        from repro.core.config import MachineConfig
        from repro.core.machine import Machine
        from repro.faults.profiles import get_profile
        from repro.net.traffic import PoissonNoise

        cfg = MachineConfig().scaled_down()
        cfg.faults = get_profile("heavy")
        machine = Machine(cfg)
        machine.install_nic(log_receives=True)
        source = PoissonNoise(
            rate_pps=300_000.0, rng=random.Random(11), count=400
        )
        source.attach(machine, machine.nic)
        machine.run_events_until(machine.clock.now + machine.clock.cycles(0.02))
        nic, drv = machine.nic.stats, machine.driver.stats
        # Injected drops happen upstream of the NIC; overflow at the NIC.
        assert source.sent < 400
        assert nic.frames == source.sent - nic.oversize_dropped - nic.overflow_dropped
        assert drv.frames == len(machine.driver.receive_log)
        # Stalled receives are deferred, not lost.
        assert drv.frames + len(machine.events) >= nic.frames


class TestBurstGuard:
    """``SlicedLLC.supports_rx_burst`` is the one list of cache policies
    the rx burst kernel models: under any other, ``rx_burst`` raises
    before touching state and the NIC never batches.  An epochal index
    is supported; there a burst must end before the next re-key."""

    POLICIES = [
        "partition",
        "evict_hook",
        "ddio-off",
        "skewed:partitions=2",
    ]

    @staticmethod
    def _machine(config, policy):
        from repro.core.config import DDIOConfig
        from repro.core.machine import Machine
        from repro.defense.partitioning import AdaptivePartition, PartitionConfig

        if policy == "ddio-off":
            config.ddio = DDIOConfig(enabled=False)
        elif ":" in policy:
            config.cache_backend = policy
        machine = Machine(config)
        machine.install_nic()
        if policy == "partition":
            AdaptivePartition(PartitionConfig()).install(machine)
        elif policy == "evict_hook":
            machine.llc.evict_hook = lambda line: None
        return machine

    @pytest.mark.parametrize("policy", POLICIES)
    def test_unsupported_policy_refuses(self, scaled_config, policy):
        import numpy as np

        machine = self._machine(scaled_config, policy)
        for size in (1500, 128, 64):
            machine.nic.deliver(Frame(size=size, protocol="tcp"))
        machine.run_events_until(machine.clock.now + 200_000)
        llc, engine = machine.llc, machine.llc.engine
        before = (
            engine.tags.copy(),
            engine.flags.copy(),
            engine.stamps.copy(),
            engine._tick,
            llc.stats.snapshot(),
        )
        first = machine.ring.next_buffer().dma_paddr >> llc.geometry.offset_bits
        lines = list(range(first, first + 4))
        assert not llc.supports_rx_burst()
        with pytest.raises(RuntimeError):
            llc.rx_burst(lines, [0] * 4, list(range(4)), 4, 0)
        assert np.array_equal(engine.tags, before[0])
        assert np.array_equal(engine.flags, before[1])
        assert np.array_equal(engine.stamps, before[2])
        assert engine._tick == before[3]
        assert llc.stats.snapshot() == before[4]
        assert not machine.nic.can_batch()

    def test_keyed_burst_stops_at_the_rekey(self, scaled_config):
        import numpy as np

        machine = self._machine(scaled_config, "keyed:epoch=50000")
        for size in (1500, 128, 64):
            machine.nic.deliver(Frame(size=size, protocol="tcp"))
        machine.run_events_until(machine.clock.now + 200_000)
        llc, engine = machine.llc, machine.llc.engine
        assert llc.supports_rx_burst() and machine.nic.can_batch()

        def state():
            arrays = [a.copy() for a in (engine.tags, engine.flags, engine.stamps)]
            counts = (
                engine._tick,
                llc.stats.snapshot(),
                llc._access_count,
                llc.mapping_epoch,
            )
            return arrays, counts

        arrays, counts = state()
        offset_bits = llc.geometry.offset_bits
        first = machine.ring.next_buffer().dma_paddr >> offset_bits
        lines = list(range(first, first + 4))
        kinds = [0] * 4
        offs = list(range(4))
        budget = llc.accesses_until_rekey()
        assert 4 <= budget < 50_000
        with pytest.raises(ValueError):
            llc.rx_burst(lines, kinds, offs, budget + 1, 0)
        arrays_after, counts_after = state()
        assert all(np.array_equal(a, b) for a, b in zip(arrays, arrays_after))
        assert counts_after == counts
        # A burst that exactly fills the budget applies under the old
        # mapping; the next access fires the re-key.
        epoch = llc.mapping_epoch
        llc.rx_burst(lines, kinds, offs, budget, 0)
        assert llc.mapping_epoch == epoch
        assert llc.accesses_until_rekey() == 0
        assert all(llc.is_resident(line << offset_bits) for line in lines)
        llc.cpu_access(lines[0] << offset_bits)
        assert llc.mapping_epoch == epoch + 1

    def test_can_batch_is_supported_policy_without_faults(self, scaled_config):
        from repro.core.machine import Machine
        from repro.faults.profiles import get_profile

        vanilla = Machine(scaled_config)
        vanilla.install_nic()
        assert vanilla.llc.supports_rx_burst() and vanilla.nic.can_batch()
        scaled_config.faults = get_profile("light")
        faulty = Machine(scaled_config)
        faulty.install_nic()
        assert faulty.llc.supports_rx_burst() and not faulty.nic.can_batch()


class TestStatsReduction:
    def test_nic_and_driver_stats_merge_delta(self, nic_machine):
        """NicStats/DriverStats reduce exactly like CacheStats (satellite:
        shared CounterStats machinery)."""
        from repro.nic.driver import DriverStats
        from repro.nic.nic import NicStats

        for size in (64, 1500, 300):
            nic_machine.nic.deliver(Frame(size=size, protocol="tcp"))
        before = nic_machine.driver.stats.snapshot()
        baseline = DriverStats.from_snapshot(before)
        nic_machine.nic.deliver(Frame(size=1500, protocol="tcp"))
        delta = nic_machine.driver.stats.delta(baseline)
        assert delta.frames == 1 and delta.fragged == 1 and delta.copied == 0

        a = NicStats(frames=3, blocks_written=40)
        b = NicStats(frames=2, blocks_written=10, overflow_dropped=1)
        merged = NicStats().merge(a).merge(b.snapshot())
        assert merged == NicStats(frames=5, blocks_written=50, overflow_dropped=1)
        a.reset()
        assert a == NicStats()


class TestTrafficSources:
    def test_constant_stream_delivers_count(self, nic_machine):
        source = ConstantStream(size=64, rate_pps=1e6, count=10)
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.drain_events()
        assert nic_machine.nic.stats.frames == 10

    def test_line_rate_enforced(self, nic_machine):
        """Asking for 10 Mpps of 1514-byte frames is capped by the wire."""
        source = ConstantStream(size=1514, rate_pps=1e7, count=50, protocol="tcp")
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.drain_events()
        elapsed = nic_machine.clock.seconds()
        max_rate = nic_machine.config.link.max_frame_rate(1514)
        assert 50 / elapsed <= max_rate * 1.01

    def test_pattern_stream_order(self, nic_machine):
        from repro.net.traffic import PatternStream

        nic_machine.driver.log_receives = True
        source = PatternStream([64, 192, 256], rate_pps=1e5, symbols=[0, 1, 2])
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.drain_events()
        assert [r.symbol for r in nic_machine.driver.receive_log] == [0, 1, 2]

    def test_stop_halts_stream(self, nic_machine):
        source = ConstantStream(size=64, rate_pps=1e5, count=100)
        source.attach(nic_machine, nic_machine.nic)
        nic_machine.idle(int(3.3e9 / 1e5 * 5))
        source.stop()
        delivered = nic_machine.nic.stats.frames
        nic_machine.drain_events()
        assert nic_machine.nic.stats.frames <= delivered + 1

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            ConstantStream(size=64, rate_pps=0)
