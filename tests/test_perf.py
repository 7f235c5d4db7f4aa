"""Tests for the performance model: agents, workloads, load generation."""

import bisect
import itertools

import pytest

from repro.core.config import DDIOConfig, MachineConfig
from repro.core.machine import Machine
from repro.defense.partitioning import AdaptivePartition
from repro.defense.randomization import FullRandomizer
from repro.perf.agent import MemAgent
from repro.perf.workloads import FileCopyWorkload, NginxServer, TcpRecvWorkload
from repro.perf.wrk import LoadGenerator


def make_machine(ddio=True, partition=False):
    cfg = MachineConfig().scaled_down()
    cfg.ddio = DDIOConfig(enabled=ddio)
    machine = Machine(cfg)
    machine.install_nic()
    if partition:
        AdaptivePartition().install(machine)
    return machine


class TestMemAgent:
    def test_l1_filters_hot_lines(self, nic_machine):
        agent = MemAgent(nic_machine, "w")
        base = agent.mmap(1)
        agent.read(base)
        misses_before = nic_machine.llc.stats.cpu_misses
        for _ in range(10):
            agent.read(base)
        assert nic_machine.llc.stats.cpu_misses == misses_before

    def test_latency_advances_clock(self, nic_machine):
        agent = MemAgent(nic_machine, "w")
        base = agent.mmap(1)
        t0 = nic_machine.clock.now
        latency = agent.read(base)
        assert nic_machine.clock.now == t0 + latency

    def test_inclusive_back_invalidation(self, nic_machine):
        """An LLC eviction must also purge the L1 copy (inclusion)."""
        agent = MemAgent(nic_machine, "w")
        llc = nic_machine.llc
        base = agent.mmap(1)
        agent.read(base)
        paddr = agent.process.addrspace.translate(base)
        llc.flush(paddr)
        assert not agent.hierarchy.l1.access(paddr)


class TestWorkloads:
    def test_filecopy_moves_configured_volume(self):
        machine = make_machine()
        report = FileCopyWorkload(machine, total_kb=64, chunk_kb=4).run()
        assert report.items == 16
        assert report.reads > 0

    @pytest.mark.parametrize("chunk_kb", [1, 2, 4])
    def test_filecopy_copies_exactly_total_kb(self, chunk_kb):
        """A chunk is chunk_kb, not a page: 64 KB is 1024 lines each way."""
        workload = FileCopyWorkload(make_machine(), total_kb=64, chunk_kb=chunk_kb)
        counts = {"read": 0, "write": 0}
        for name in counts:
            access = getattr(workload.agent, name)

            def counting(vaddr, name=name, access=access):
                counts[name] += 1
                return access(vaddr)

            setattr(workload.agent, name, counting)
        report = workload.run()
        assert counts == {"read": 1024, "write": 1024}
        assert report.items == 64 // chunk_kb

    @pytest.mark.parametrize(
        "sizes", [{"chunk_kb": 0}, {"chunk_kb": -4}, {"total_kb": 0}]
    )
    def test_filecopy_rejects_non_positive_sizes(self, sizes):
        with pytest.raises(ValueError, match="must be positive"):
            FileCopyWorkload(make_machine(), **sizes)

    def test_filecopy_ddio_cuts_traffic(self):
        no_ddio = FileCopyWorkload(make_machine(ddio=False), total_kb=64).run()
        with_ddio = FileCopyWorkload(make_machine(ddio=True), total_kb=64).run()
        assert with_ddio.reads < no_ddio.reads
        assert with_ddio.writes < no_ddio.writes

    def test_tcprecv_delivers_packets(self):
        machine = make_machine()
        report = TcpRecvWorkload(machine, n_packets=100).run()
        assert report.items == 100
        assert machine.nic.stats.frames == 100

    def test_tcprecv_needs_nic(self):
        machine = Machine(MachineConfig().scaled_down())
        with pytest.raises(RuntimeError):
            TcpRecvWorkload(machine)

    def test_nginx_serves_requests(self):
        machine = make_machine()
        server = NginxServer(machine, n_files=8, file_kb=8)
        report = server.serve_closed_loop(50)
        assert report.items == 50
        assert report.items_per_second(machine.clock.frequency_hz) > 0

    def test_nginx_request_lines_stay_in_their_regions(self):
        """Files and state that are not whole pages still map every page
        their lines touch: each request reads the state, one file and the
        response buffer, and nothing of a neighbouring region."""
        machine = make_machine()
        server = NginxServer(machine, n_files=4, file_kb=6, hot_state_kb=6)
        regions = sorted(
            [(base, f"file{i}") for i, base in enumerate(server._files)]
            + [(server._state, "state"), (server._resp, "resp")]
        )
        bases = [base for base, _ in regions]
        space = server.agent.process.addrspace
        translate = space.translate
        touched = []

        def recording(vaddr):
            touched.append(regions[bisect.bisect_right(bases, vaddr) - 1][1])
            return translate(vaddr)

        space.translate = recording
        files = set()
        for _ in range(60):
            touched.clear()
            server.handle_request()
            order = [name for name, _ in itertools.groupby(touched)]
            assert len(order) == 3 and order[0] == "state" and order[2] == "resp", order
            files.add(order[1])
        assert "file3" in files  # the last file, whose neighbour is the state

    def test_nginx_ddio_faster_than_no_ddio(self):
        results = {}
        for ddio in (False, True):
            machine = make_machine(ddio=ddio)
            server = NginxServer(machine, n_files=32, file_kb=16)
            results[ddio] = server.serve_closed_loop(150).cycles
        assert results[True] < results[False]

    def test_nginx_partitioning_costs_little(self):
        results = {}
        for partition in (False, True):
            machine = make_machine(partition=partition)
            server = NginxServer(machine, n_files=32, file_kb=16)
            results[partition] = server.serve_closed_loop(150).cycles
        overhead = results[True] / results[False] - 1
        assert overhead < 0.15

    def test_randomizer_overhead_charged_to_requests(self):
        machine = make_machine()
        randomizer = FullRandomizer()
        machine.driver.randomizer = randomizer
        server = NginxServer(machine)
        server.randomizer = randomizer
        baseline_machine = make_machine()
        baseline = NginxServer(baseline_machine)
        slow = server.serve_closed_loop(100).cycles
        fast = baseline.serve_closed_loop(100).cycles
        assert slow > fast

    @pytest.mark.xfail(
        strict=True,
        reason="handle_request picks the rx buffer after the driver's "
        "randomizer replaced its page, so it reads a page the NIC never "
        "filled (ROADMAP)",
    )
    def test_full_random_request_read_targets_filled_buffer(self):
        machine = make_machine()
        randomizer = FullRandomizer()
        machine.driver.randomizer = randomizer
        server = NginxServer(machine)
        server.randomizer = randomizer
        read = []
        read_kernel_run = server.agent.read_kernel_run

        def recording(paddr, n_lines):
            read.append(paddr)
            return read_kernel_run(paddr, n_lines)

        server.agent.read_kernel_run = recording
        for _ in range(10):
            filled = machine.ring.next_buffer().dma_paddr
            server.handle_request()
            assert read[-1] == filled


class TestLoadGenerator:
    def test_open_loop_latency_includes_queueing(self):
        machine = make_machine()
        server = NginxServer(machine, n_files=8, file_kb=8)
        # Offered rate far above service rate: the tail must queue.
        report = LoadGenerator(machine, server, rate_rps=1e6, n_requests=200).run()
        pct = report.percentiles_ms()
        assert pct[99.0] > pct[25.0]

    def test_light_load_tail_far_below_overload_tail(self):
        def p99(rate):
            machine = make_machine()
            server = NginxServer(machine, n_files=8, file_kb=8)
            server.serve_closed_loop(50)  # warm caches
            report = LoadGenerator(
                machine, server, rate_rps=rate, n_requests=100
            ).run()
            return report.percentiles_ms()[99.0]

        assert p99(5_000) < p99(1_000_000) / 5

    def test_achieved_rate_bounded_by_offered(self):
        machine = make_machine()
        server = NginxServer(machine, n_files=8, file_kb=8)
        report = LoadGenerator(machine, server, rate_rps=20_000, n_requests=100).run()
        assert report.achieved_rps <= 20_000 * 1.1

    def test_validation(self):
        machine = make_machine()
        server = NginxServer(machine)
        with pytest.raises(ValueError):
            LoadGenerator(machine, server, rate_rps=0, n_requests=10)
        with pytest.raises(ValueError):
            LoadGenerator(machine, server, rate_rps=10, n_requests=0)
