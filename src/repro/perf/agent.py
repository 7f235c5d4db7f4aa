"""A workload's memory agent: process + private L1 over the shared LLC."""

from __future__ import annotations

import sys

from repro.cache.hierarchy import CacheHierarchy, L1Cache


class MemAgent:
    """Issues loads/stores for a victim workload through L1 + LLC.

    Unlike the spy (which deliberately works at LLC granularity), victim
    workloads have the normal locality structure, so an L1 in front of the
    LLC matters for realistic traffic: hot lines filter out, and only the
    L1 miss stream reaches the shared cache.

    Every access is part of a run of consecutive lines (:meth:`read_run`,
    :meth:`write_run`, :meth:`read_kernel_run`; a single access is a
    one-line run).  A run fires due events and translates only where a
    per-access loop could see a difference: at each page and before the
    first access that starts at or after the next pending event.  Access
    order, the cycle each access starts at and the point each event fires
    are those of firing due events before every access.
    """

    def __init__(self, machine, name: str, l1_kb: int = 32, l1_ways: int = 8) -> None:
        self.machine = machine
        self.process = machine.new_process(name)
        self._line = machine.llc.geometry.line_size
        self._page = machine.physmem.page_size
        self.hierarchy = CacheHierarchy(
            machine.llc,
            l1=L1Cache(size_kb=l1_kb, ways=l1_ways, line_size=self._line),
        )
        self.cycles_spent = 0

    # ------------------------------------------------------------------
    # Mapping (delegates to the process address space)
    # ------------------------------------------------------------------
    def mmap(self, n_pages: int) -> int:
        return self.process.mmap(n_pages)

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def read(self, vaddr: int) -> int:
        """Timed load; advances the machine clock, returns latency."""
        return self._run(vaddr, 1, write=False, virtual=True)

    def write(self, vaddr: int) -> int:
        """Timed store; advances the machine clock, returns latency."""
        return self._run(vaddr, 1, write=True, virtual=True)

    def read_kernel(self, paddr: int) -> int:
        """Timed load of a kernel physical address (skb data, rx pages)."""
        return self._run(paddr, 1, write=False, virtual=False)

    def read_run(self, vaddr: int, n_lines: int) -> int:
        """Timed loads of ``n_lines`` consecutive lines from ``vaddr``;
        returns their summed latency."""
        return self._run(vaddr, n_lines, write=False, virtual=True)

    def write_run(self, vaddr: int, n_lines: int) -> int:
        """Timed stores of ``n_lines`` consecutive lines from ``vaddr``;
        returns their summed latency."""
        return self._run(vaddr, n_lines, write=True, virtual=True)

    def read_kernel_run(self, paddr: int, n_lines: int) -> int:
        """Timed loads of ``n_lines`` consecutive kernel physical lines
        from ``paddr``; returns their summed latency."""
        return self._run(paddr, n_lines, write=False, virtual=False)

    def _run(self, addr: int, n_lines: int, write: bool, virtual: bool) -> int:
        """Step ``n_lines`` lines from ``addr`` in segments; return their
        summed latency.

        A segment lies inside one page and ends before the next pending
        event.  At its start the clock is set to the run's current cycle
        and due events fire, as they would before that access in a
        per-access loop.  A page is translated when the run reaches it, so
        a run into an unmapped page raises after the same accesses.
        """
        machine = self.machine
        clock = machine.clock
        events = machine.events
        access_run = self.hierarchy.access_run
        translate = self.process.addrspace.translate if virtual else None
        line = self._line
        page = self._page
        now = clock.now
        spent = 0
        page_end = addr  # the first segment translates
        try:
            while n_lines > 0:
                clock.now = now
                events.run_due(now)
                # An event action may move the clock; the next access then
                # starts there and happens before any further event.
                now = clock.now
                if addr >= page_end:
                    paddr = translate(addr) if virtual else addr
                    page_end = addr - addr % page + page
                due = events.peek_time()
                until = sys.maxsize if due is None else max(due, now + 1)
                in_page = -(-(page_end - addr) // line)  # unaligned: round up
                done, after = access_run(
                    paddr, min(n_lines, in_page), write, now, until
                )
                spent += after - now
                now = after
                n_lines -= done
                addr += done * line
                paddr += done * line
        finally:
            clock.now = now
            self.cycles_spent += spent
        return spent

    def compute(self, cycles: int) -> None:
        """Non-memory work."""
        self.machine.idle(cycles)
        self.cycles_spent += cycles
