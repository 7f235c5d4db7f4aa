"""The paper's headline security claims, as executable assertions.

Each test is one sentence from the paper turned into code: the channel
works without DDIO (§IV-d), the adaptive partition kills it (§VII), a
networking restart invalidates the spy's knowledge (§III-A), and the covert
frames never need to be addressed to the spy's host (§IV-d).
"""

from repro.analysis.lfsr import lfsr_symbols
from repro.attack.covert import CovertReceiver, CovertTrojan, run_covert_channel
from repro.attack.setup import MonitorFactory, unique_buffer_positions
from repro.attack.timing import calibrate_threshold
from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition


def build_machine(ddio: bool = True, partition: bool = False) -> Machine:
    cfg = MachineConfig().scaled_down()
    cfg.ddio = DDIOConfig(enabled=ddio)
    machine = Machine(cfg)
    machine.install_nic()
    if partition:
        AdaptivePartition().install(machine)
    return machine


def run_channel(
    machine,
    n_symbols: int = 30,
    wait_cycles: int = 30_000,
    protocol: str = "broadcast",
):
    spy = machine.new_process("spy")
    factory = MonitorFactory(machine, spy, calibrate_threshold(spy), huge_pages=4)
    position = unique_buffer_positions(machine)[0]
    receiver = CovertReceiver(spy, [factory.stream_monitors(position)])
    trojan = CovertTrojan(
        alphabet=3,
        ring_size=len(machine.ring.buffers),
        rate_pps=300_000,
        protocol=protocol,
    )
    symbols = lfsr_symbols(n_symbols, 3)
    return run_covert_channel(machine, receiver, trojan, symbols, wait_cycles)


class TestClaimAttackWithoutDDIO:
    """'The Packet Chasing attack is practical even in the absence of
    those technologies' (§II-E, §IV-d)."""

    def test_channel_works_without_ddio(self):
        """Without DDIO the payload reaches the cache only when the stack
        processes it, so the trojan sends frames the host handles (here:
        tcp) instead of undeliverable broadcasts — §IV-d's own caveat."""
        machine = build_machine(ddio=False)
        report = run_channel(machine, wait_cycles=60_000, protocol="tcp")
        assert report.error_rate <= 0.35  # noisier, but a working channel

    def test_ddio_channel_cleaner_than_no_ddio(self):
        with_ddio = run_channel(build_machine(ddio=True))
        without = run_channel(
            build_machine(ddio=False), wait_cycles=60_000, protocol="tcp"
        )
        assert with_ddio.error_rate <= without.error_rate

    def test_discarded_broadcasts_leak_no_sizes_without_ddio(self):
        """The flip side: with DDIO off, frames the driver discards never
        get their payload cached — size detection dies (presence/timing
        remains, which is why the paper says disabling DDIO is not a fix
        but does degrade the channel)."""
        machine = build_machine(ddio=False)
        report = run_channel(machine, wait_cycles=60_000, protocol="broadcast")
        assert report.error_rate > 0.35


class TestClaimPartitioningStopsTheLeak:
    """'Any process running on the CPU will not see any of its cache lines
    evicted as the result of an incoming packet' (§VII)."""

    def test_covert_channel_dies_under_partitioning(self):
        vulnerable = run_channel(build_machine())
        defended_machine = build_machine(partition=True)
        defended = run_channel(defended_machine)
        assert vulnerable.error_rate <= 0.15
        # Under the defense the spy decodes garbage (missing clock edges
        # and/or spurious zeros): the error rate collapses toward chance.
        assert defended.error_rate >= 0.5
        assert defended_machine.llc.stats.io_evicted_cpu == 0


class TestClaimRestartInvalidatesKnowledge:
    """Buffers keep their order only 'until the next system reboot or
    networking restart' (§III-A)."""

    def test_restart_moves_the_ring(self):
        machine = build_machine()
        spy = machine.new_process("spy")
        factory = MonitorFactory(machine, spy, calibrate_threshold(spy), huge_pages=4)
        factory.buffer_monitor(0, blocks=(0,), include_alt=False)
        old_sets = {
            machine.llc.flat_set_of(b.dma_paddr) for b in machine.ring.buffers
        }
        machine.restart_networking()
        new_sets = {
            machine.llc.flat_set_of(b.dma_paddr) for b in machine.ring.buffers
        }
        # The footprint moved: stale monitors now watch mostly-dead sets.
        assert old_sets != new_sets


class TestClaimBroadcastSuffices:
    """'They are not even required to be destined for the machine that
    hosts the spy' (§IV-d): broadcast frames the driver discards still
    carry the channel, because DDIO cached them before the protocol check."""

    def test_discarded_frames_still_leak(self):
        machine = build_machine()
        report = run_channel(machine)
        assert machine.driver.stats.discarded == machine.driver.stats.frames
        assert report.error_rate <= 0.15


class TestClaimNoCooperatingSenderNeeded:
    """'The spy can recover the sequence even without the help of the
    external sender, as long as the system is receiving packets' (§III-C):
    ambient traffic advances the ring in the same fixed order."""

    def test_sequencer_works_on_ambient_traffic(self):
        import random

        from repro.analysis.levenshtein import cyclic_levenshtein
        from repro.attack.evictionset import OracleEvictionSetBuilder
        from repro.attack.groundtruth import true_group_sequence
        from repro.attack.sequencer import Sequencer, SequencerConfig
        from repro.net.traffic import PoissonNoise

        machine = build_machine()
        spy = machine.new_process("spy")
        threshold = calibrate_threshold(spy)
        builder = OracleEvictionSetBuilder(spy, threshold, huge_pages=4)
        groups = builder.build_page_aligned_groups()[:12]
        # Only uncooperative background flows with Poisson gaps.  Small
        # frames only: MTU-sized frames make the driver flip page halves,
        # which moves buffers off the page-aligned sets mid-profiling (the
        # spy would track both halves; the claim under test is about sender
        # cooperation, not packet mix).
        ambient = PoissonNoise(
            rate_pps=12_000,
            rng=random.Random(8),
            size_choices=(64, 128, 192, 256),
        )
        ambient.attach(machine, machine.nic)
        sequencer = Sequencer(
            spy, groups, SequencerConfig(n_samples=3000, wait_cycles=150_000)
        )
        recovered, _trace = sequencer.recover()
        ambient.stop()
        truth = true_group_sequence(machine, spy, groups)
        assert truth
        distance = cyclic_levenshtein(recovered, truth)
        assert distance / len(truth) <= 0.35
