"""Tests for sequence recovery (Algorithm 1) and packet chasing."""

import pytest

from repro.analysis.levenshtein import cyclic_levenshtein
from repro.attack.evictionset import OracleEvictionSetBuilder
from repro.attack.groundtruth import (
    buffer_flat_sets,
    buffers_per_page_aligned_set,
    true_group_sequence,
)
from repro.attack.sequencer import Sequencer, SequencerConfig
from repro.attack.setup import MonitorFactory, spaced_positions, unique_buffer_positions
from repro.net.traffic import ConstantStream


class TestGroundTruth:
    def test_buffer_flat_sets_one_per_buffer(self, nic_machine):
        flats = buffer_flat_sets(nic_machine)
        assert len(flats) == len(nic_machine.ring.buffers)

    def test_counts_sum_to_ring_size(self, nic_machine):
        counts = buffers_per_page_aligned_set(nic_machine)
        assert sum(counts.values()) == len(nic_machine.ring.buffers)

    def test_true_sequence_collapses_repeats(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()
        seq = true_group_sequence(nic_machine, spy, groups)
        for a, b in zip(seq, seq[1:]):
            assert a != b

    def test_no_nic_raises(self, machine):
        with pytest.raises(RuntimeError):
            buffer_flat_sets(machine)


class TestSequencer:
    @pytest.fixture
    def recovered(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()[:12]
        sender = ConstantStream(size=64, rate_pps=15_000, protocol="broadcast")
        sender.attach(nic_machine, nic_machine.nic)
        config = SequencerConfig(n_samples=2500, wait_cycles=180_000)
        sequencer = Sequencer(spy, groups, config)
        sequence, trace = sequencer.recover()
        sender.stop()
        truth = true_group_sequence(nic_machine, spy, groups)
        return sequence, truth, trace

    def test_recovers_ring_order(self, recovered):
        sequence, truth, _trace = recovered
        assert truth, "expected monitored groups to host buffers"
        distance = cyclic_levenshtein(sequence, truth)
        assert distance / len(truth) <= 0.25

    def test_sample_trace_saw_activity(self, recovered):
        _seq, _truth, trace = recovered
        assert sum(trace.activity_counts()) > 0

    def test_needs_three_sets(self, spy, threshold):
        from repro.attack.evictionset import EvictionSet

        sets = [EvictionSet(spy, [0x1000], threshold)] * 2
        with pytest.raises(ValueError):
            Sequencer(spy, sets)

    def test_empty_graph_raises(self, nic_machine, spy, threshold):
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()[:4]
        sequencer = Sequencer(spy, groups, SequencerConfig(n_samples=5))
        with pytest.raises(RuntimeError):
            sequencer.make_sequence({})

    def test_build_graph_skips_self_loops(self, nic_machine, spy, threshold):
        from repro.attack.primeprobe import SampleTrace

        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()[:3]
        sequencer = Sequencer(spy, groups, SequencerConfig(n_samples=5))
        trace = SampleTrace(
            samples=[[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]],
            times=[0, 1, 2, 3],
            set_labels=["a", "b", "c"],
        )
        graph = sequencer.build_graph(trace)
        for (prev, curr), successors in graph.items():
            assert prev != curr or (prev, curr) == (0, 0)


class TestChasing:
    def test_chase_follows_ring(self, nic_machine, spy, threshold):
        factory = MonitorFactory(nic_machine, spy, threshold, huge_pages=4)
        chaser = factory.full_ring_chaser(include_alt=False)
        sender = ConstantStream(size=256, rate_pps=50_000, protocol="broadcast")
        sender.attach(nic_machine, nic_machine.nic)
        result = chaser.chase(40, timeout_cycles=2_000_000, poll_wait=5_000)
        sender.stop()
        assert result.packets_seen == 40
        assert result.out_of_sync_rate < 0.2
        assert all(s == 4 for s in result.sizes)

    def test_chase_reads_sizes(self, nic_machine, spy, threshold):
        from repro.net.traffic import PatternStream

        factory = MonitorFactory(nic_machine, spy, threshold, huge_pages=4)
        chaser = factory.full_ring_chaser(include_alt=False)
        sizes = [64, 192, 256] * 10
        source = PatternStream(sizes, rate_pps=50_000, protocol="broadcast")
        chaser.prime_all()
        source.attach(nic_machine, nic_machine.nic)
        result = chaser.chase(
            30, timeout_cycles=2_000_000, poll_wait=5_000, prime=False
        )
        source.stop()
        # 64B -> blocks 0+1 (prefetch) => read as 2; 192B -> 3; 256B -> 4.
        assert result.sizes[:6] == [2, 3, 4, 2, 3, 4]

    def test_timeout_counts_misses(self, nic_machine, spy, threshold):
        factory = MonitorFactory(nic_machine, spy, threshold, huge_pages=4)
        chaser = factory.full_ring_chaser(include_alt=False)
        result = chaser.chase(5, timeout_cycles=50_000, poll_wait=5_000)
        assert result.packets_seen == 0
        assert result.misses > 0

    def test_monitor_requires_block0(self, spy, threshold):
        from repro.attack.chase import BufferMonitor
        from repro.attack.evictionset import EvictionSet

        es = EvictionSet(spy, [0x1000], threshold)
        with pytest.raises(ValueError):
            BufferMonitor(name="x", blocks={1: es})


class TestSetupHelpers:
    def test_unique_positions_truly_unique(self, nic_machine):
        positions = unique_buffer_positions(nic_machine)
        flats = buffer_flat_sets(nic_machine)
        for p in positions:
            assert flats.count(flats[p]) == 1

    def test_spaced_positions_spread(self):
        picked = spaced_positions(list(range(32)), 4, 32)
        assert len(picked) == 4
        gaps = [b - a for a, b in zip(picked, picked[1:])]
        assert min(gaps) >= 4

    def test_spaced_positions_insufficient(self):
        with pytest.raises(ValueError):
            spaced_positions([1, 2], 3, 32)

    def test_factory_monitor_targets_buffer(self, nic_machine, spy, threshold):
        factory = MonitorFactory(nic_machine, spy, threshold, huge_pages=4)
        monitor = factory.buffer_monitor(0, blocks=(0, 1), include_alt=True)
        llc = nic_machine.llc
        buffer = nic_machine.ring.buffers[nic_machine.ring.head]
        es0 = monitor.blocks[0]
        paddr = spy.addrspace.translate(es0.addrs[0])
        assert llc.flat_set_of(paddr) == llc.flat_set_of(buffer.dma_paddr)
        alt = monitor.alt_blocks[0]
        alt_paddr = spy.addrspace.translate(alt.addrs[0])
        assert llc.flat_set_of(alt_paddr) == llc.flat_set_of(
            buffer.page_paddr + 2048
        )
