"""Per-process virtual address spaces.

Two mapping flavours matter for the attack:

* **Small (4 KB) pages** — what any unprivileged allocation gets.  Virtual
  pages land on randomised physical frames, so the process controls only the
  low 12 address bits.  With 64-byte lines and 2048-set slices, that fixes
  set-index bits 6..11 and leaves bits 12..16 (plus the slice hash) unknown
  — which is exactly why the paper's spy must build eviction sets by timing.
* **Huge (2 MB) pages** — physically contiguous and aligned, so the process
  controls bits 0..20: the full set index is known and only the slice
  remains to be resolved by timing.  Real attacks (Liu et al., Mastik) use
  huge pages the same way.
"""

from __future__ import annotations

from repro.mem.physmem import PhysicalMemory

HUGE_PAGE_SIZE = 2 * 1024 * 1024


class AddressSpace:
    """Virtual-to-physical mapping for one simulated process.

    Virtual addresses are allocated from a simple bump pointer; translation
    is a page-table dictionary.  The class never stores data — only the
    mapping — because the attack is purely address/timing based.
    """

    def __init__(self, physmem: PhysicalMemory, name: str = "proc") -> None:
        self.physmem = physmem
        self.name = name
        self.page_size = physmem.page_size
        self._page_table: dict[int, int] = {}  # vpn -> pfn
        self._next_vaddr = 0x1000_0000  # arbitrary non-zero base
        self._huge_regions: list[tuple[int, int]] = []  # (vaddr, n_bytes)

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def mmap(self, n_pages: int, node: int | None = None) -> int:
        """Map ``n_pages`` 4 KB pages onto random frames; return base vaddr."""
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        base = self._next_vaddr
        for i in range(n_pages):
            vpn = (base // self.page_size) + i
            self._page_table[vpn] = self.physmem.alloc_frame(node)
        self._next_vaddr += n_pages * self.page_size
        return base

    def mmap_huge(self, n_huge_pages: int = 1) -> int:
        """Map ``n_huge_pages`` 2 MB huge pages; return base vaddr.

        Each huge page is a physically contiguous, 2 MB-aligned run of
        frames, so ``paddr = frame_base + (vaddr - base)`` within the page.
        """
        if n_huge_pages <= 0:
            raise ValueError(f"n_huge_pages must be positive, got {n_huge_pages}")
        frames_per_huge = HUGE_PAGE_SIZE // self.page_size
        base = self._next_vaddr
        # Keep the virtual base huge-page aligned so offset arithmetic works.
        if base % HUGE_PAGE_SIZE:
            base += HUGE_PAGE_SIZE - (base % HUGE_PAGE_SIZE)
        for h in range(n_huge_pages):
            start_frame = self.physmem.alloc_contiguous(
                frames_per_huge, align_frames=frames_per_huge
            )
            for i in range(frames_per_huge):
                vpn = (base + h * HUGE_PAGE_SIZE) // self.page_size + i
                self._page_table[vpn] = start_frame + i
        self._next_vaddr = base + n_huge_pages * HUGE_PAGE_SIZE
        self._huge_regions.append((base, n_huge_pages * HUGE_PAGE_SIZE))
        return base

    def map_fixed(self, vaddr: int, frame: int) -> None:
        """Install an explicit vpn->pfn mapping (kernel-style, for drivers)."""
        if vaddr % self.page_size:
            raise ValueError("vaddr must be page aligned")
        self._page_table[vaddr // self.page_size] = frame

    def munmap(self, vaddr: int, n_pages: int) -> None:
        """Unmap and free ``n_pages`` starting at ``vaddr``."""
        if vaddr % self.page_size:
            raise ValueError("vaddr must be page aligned")
        base_vpn = vaddr // self.page_size
        for i in range(n_pages):
            frame = self._page_table.pop(base_vpn + i, None)
            if frame is None:
                raise ValueError(f"page {base_vpn + i:#x} not mapped")
            self.physmem.free_frame(frame)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> int:
        """Translate a virtual address to a physical address."""
        vpn, offset = divmod(vaddr, self.page_size)
        try:
            frame = self._page_table[vpn]
        except KeyError:
            raise ValueError(
                f"segfault: {self.name} accessed unmapped address {vaddr:#x}"
            ) from None
        return frame * self.page_size + offset

    def is_mapped(self, vaddr: int) -> bool:
        """Whether ``vaddr`` falls on a mapped page."""
        return (vaddr // self.page_size) in self._page_table
