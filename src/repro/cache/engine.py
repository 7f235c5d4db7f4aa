"""Packed array-backed storage for every set of the sliced LLC.

The legacy model kept one ``OrderedDict`` per cache set (see
:mod:`reference.cache`), which makes every simulated access a Python
dict operation and every :class:`~repro.core.machine.Machine` construction
an allocation of 16384 dicts.  :class:`CacheEngine` replaces that with flat
arrays shared by *all* sets:

* ``tags``   — int64, ``n_sets * ways``; the full line address (which is
  also the tag), ``-1`` for an empty way;
* ``flags``  — uint8, per-way ``LINE_IO`` / ``LINE_DIRTY`` bits;
* ``stamps`` — int64, per-way last-touch tick from a single monotonic
  counter.  Within one set, stamps are unique and strictly ordered by
  recency, so "LRU" is "minimum stamp" — exactly the order the legacy
  ``OrderedDict`` maintained structurally.

An empty way holds flags 0 and stamp 0, and a line's stamp is at least 1.
Every single-line victim search (the scalar inserts and evictions, and
the rx burst pass) goes through one helper, :meth:`CacheEngine._lru_way`,
which finds the minimum stamp of one row with a Python loop over the
row's stamps (and flags, for one origin), or one ``argmin`` when every
way holds a line.

A single Python dict (``line -> slot``, the line's index ``flat * ways +
way`` into the arrays) is the directory, and small Python lists track
per-set occupancy and I/O-line counts.  The line alone keys the
directory because a resident line sits in exactly one set: the caller's
index mapping is a function of the line, and a re-key
(:meth:`CacheEngine.reload`) places every line afresh.  So the engine
alone finds a resident line: a hit, a flush, a DMA write to a cached
line and a dirty writeback take the line only, and a set id is needed
only to place a line (a fill or an eviction).  The batched kernels read
the same directory: :meth:`lookup_many` turns a batch's lines into slots
and :meth:`touch_many` stamps them with one vectorised assignment, which
is what lets a PRIME+PROBE sweep issue one engine call instead of one
Python call per line.

Semantics are differentially tested against the legacy model
(``tests/test_engine_equivalence.py``): identical eviction decisions,
stats attribution and probe results on randomized CPU/DMA/flush/partition
traces.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.cache.cacheset import LINE_DIRTY, LINE_IO

_BIG = np.iinfo(np.int64).max


class RxBurstCounts(NamedTuple):
    """What one rx burst did, for :meth:`SlicedLLC.rx_burst`'s accounting.

    ``io_by_fill`` and ``io_by_cpu`` count the I/O lines evicted by DMA
    fills and by CPU ops; ``cpu_by_fill`` lists, in op order, the CPU
    lines that fills displaced.
    """

    fill_hits: int
    new_fills: int
    cpu_hits: int
    cpu_misses: int
    dirty_victims: int
    io_by_fill: int
    io_by_cpu: int
    cpu_by_fill: list[int]


class CacheEngine:
    """Flat-array storage and LRU policy for ``n_sets`` x ``ways`` lines.

    The methods that place or evict a line take a *flat set id*
    (slice-major, as :meth:`repro.cache.llc.SlicedLLC.flat_set_of`
    produces it); those that act on a resident line take the line alone.
    A line must not be inserted while it is resident.
    The engine is policy-free with respect to *which* victim origin to
    choose — callers (the DDIO path, the partition defense) pick victims
    via :meth:`evict_lru` / :meth:`evict_lru_of`.
    """

    __slots__ = (
        "n_sets",
        "ways",
        "tags",
        "flags",
        "stamps",
        "_size",
        "_n_io",
        "_dir",
        "_tick",
    )

    def __init__(self, n_sets: int, ways: int) -> None:
        if n_sets <= 0:
            raise ValueError(f"n_sets must be positive, got {n_sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.n_sets = n_sets
        self.ways = ways
        total = n_sets * ways
        self.tags = np.full(total, -1, dtype=np.int64)
        self.flags = np.zeros(total, dtype=np.uint8)
        self.stamps = np.zeros(total, dtype=np.int64)
        self._size = [0] * n_sets
        self._n_io = [0] * n_sets
        #: Directory: resident line -> its slot, ``flat * ways + way``.
        self._dir: dict[int, int] = {}
        self._tick = 0

    # ------------------------------------------------------------------
    # Scalar lookups
    # ------------------------------------------------------------------
    def contains(self, line: int) -> bool:
        return line in self._dir

    def flags_of(self, line: int) -> int | None:
        """Flags of a resident line, or None if absent (no LRU update)."""
        slot = self._dir.get(line)
        return None if slot is None else self.flags.item(slot)

    def size(self, flat: int) -> int:
        """Number of resident lines in a set."""
        return self._size[flat]

    def io_count(self, flat: int) -> int:
        """Number of resident I/O-origin lines in a set."""
        return self._n_io[flat]

    def cpu_count(self, flat: int) -> int:
        """Number of resident CPU-origin lines in a set."""
        return self._size[flat] - self._n_io[flat]

    # ------------------------------------------------------------------
    # Scalar mutations
    # ------------------------------------------------------------------
    def touch(self, line: int, set_dirty: bool = False) -> bool:
        """Access a line; True on hit (stamps it MRU, optionally dirties)."""
        slot = self._dir.get(line)
        if slot is None:
            return False
        self._tick += 1
        self.stamps[slot] = self._tick
        if set_dirty:
            self.flags[slot] |= LINE_DIRTY
        return True

    def insert(self, flat: int, line: int, flags: int) -> tuple[int, int] | None:
        """Insert a new line as MRU, evicting the set's LRU line if full.

        Returns the evicted ``(line, flags)`` or None.  The caller is
        responsible for the line not already being present — same contract
        as the legacy ``CacheSet.insert``.  In a full set the line takes
        the way its eviction frees, in any other the first free way.
        """
        ways = self.ways
        base = flat * ways
        evicted = None
        if self._size[flat] >= ways:
            way = self._lru_way(flat, 0, ways)
            evicted = self._drop(base + way)
        else:
            try:
                way = self.tags[base : base + ways].tolist().index(-1)
            except ValueError:  # pragma: no cover - guarded by size bookkeeping
                raise RuntimeError(
                    f"set {flat} full despite size {self._size[flat]}"
                ) from None
        self._put(flat, way, line, flags)
        return evicted

    def evict_lru(self, flat: int) -> tuple[int, int]:
        """Evict and return the least recently used line of a set."""
        if not self._size[flat]:
            raise LookupError("evict_lru on empty set")
        return self._drop(flat * self.ways + self._lru_way(flat, 0, self.ways))

    def insert_in(
        self, flat: int, line: int, flags: int, lo: int, hi: int
    ) -> tuple[int, int] | None:
        """Insert as MRU using only ways ``[lo, hi)`` — the skewed backend's
        candidate-way restriction.  Evicts the range's LRU line if the
        range is full; returns the evicted ``(line, flags)`` or None.
        """
        base = flat * self.ways
        row = self.tags[base + lo : base + hi].tolist()
        evicted = None
        if -1 in row:
            way = lo + row.index(-1)
        else:
            way = self._lru_way(flat, lo, hi)
            evicted = self._drop(base + way)
        self._put(flat, way, line, flags)
        return evicted

    def evict_lru_of(self, flat: int, io: bool) -> tuple[int, int] | None:
        """Evict the LRU line whose origin matches ``io``; None if no match."""
        way = self._lru_way(flat, 0, self.ways, io)
        return None if way < 0 else self._drop(flat * self.ways + way)

    def _lru_way(self, flat: int, lo: int, hi: int, io: bool | None = None) -> int:
        """The way in ``[lo, hi)`` of set ``flat`` holding its least
        recently used line, among lines of origin ``io`` when given; -1
        when no line qualifies.  A stamp of 0 marks an empty way."""
        base = flat * self.ways
        if io is None and self._size[flat] == self.ways:
            # Every way holds a line: one numpy call beats a Python loop.
            return lo + int(self.stamps[base + lo : base + hi].argmin())
        stamps = self.stamps[base + lo : base + hi].tolist()
        victim, oldest = -1, _BIG
        if io is None:
            for way, stamp in enumerate(stamps):
                if 0 < stamp < oldest:
                    victim, oldest = way, stamp
        else:
            want = LINE_IO if io else 0
            for way, flags in enumerate(self.flags[base + lo : base + hi].tolist()):
                if flags & LINE_IO == want and 0 < stamps[way] < oldest:
                    victim, oldest = way, stamps[way]
        return victim if victim < 0 else lo + victim

    def invalidate(self, line: int) -> int | None:
        """Drop a line without eviction bookkeeping; return its flags."""
        slot = self._dir.get(line)
        if slot is None:
            return None
        return self._drop(slot)[1]

    def mark_io(self, line: int) -> None:
        """Convert a resident line to a dirty I/O line and stamp it MRU."""
        slot = self._dir.get(line)
        if slot is None:
            raise LookupError(f"line {line:#x} not resident")
        flags = self.flags.item(slot)
        if not (flags & LINE_IO):
            self._n_io[slot // self.ways] += 1
        self.flags[slot] = flags | LINE_IO | LINE_DIRTY
        self._tick += 1
        self.stamps[slot] = self._tick

    def _put(self, flat: int, way: int, line: int, flags: int) -> None:
        """Place a new line, stamped MRU, in a free way of a set."""
        slot = flat * self.ways + way
        self.tags[slot] = line
        self.flags[slot] = flags
        self._tick += 1
        self.stamps[slot] = self._tick
        self._dir[line] = slot
        self._size[flat] += 1
        if flags & LINE_IO:
            self._n_io[flat] += 1

    def _drop(self, slot: int) -> tuple[int, int]:
        """Remove the line at ``slot``; return (line, flags)."""
        line = self.tags.item(slot)
        flags = self.flags.item(slot)
        self.tags[slot] = -1
        self.flags[slot] = 0
        self.stamps[slot] = 0
        del self._dir[line]
        flat = slot // self.ways
        self._size[flat] -= 1
        if flags & LINE_IO:
            self._n_io[flat] -= 1
        return line, flags

    def reload(
        self, flats: np.ndarray, lines: np.ndarray, flags: np.ndarray
    ) -> np.ndarray:
        """Empty every set, then insert line ``i`` into set ``flats[i]`` in
        array order: what a loop of :meth:`insert` leaves, in closed form.

        Used by epoch re-keying, which reinserts every resident line,
        LRU to MRU, under the fresh mapping.  The tick keeps counting, so
        the line at array position ``p`` is stamped ``tick + 1 + p``,
        above every stamp issued before.  In a set, the loop puts its
        ``j``-th line in way ``j % ways``: the first ``ways`` take the
        free ways in order, and each later one evicts the set's LRU, the
        line ``ways`` places before it, and takes its way.  So only each
        set's last ``ways`` lines stay.

        Returns the array positions of the dropped lines, ordered by the
        position of the line that drops each: the loop's eviction order.
        """
        ways = self.ways
        n = len(flats)
        order = np.argsort(flats, kind="stable")
        sflats = flats[order]
        counts = np.bincount(flats, minlength=self.n_sets)
        rank = np.arange(n) - (np.cumsum(counts) - counts)[sflats]
        keep = rank >= counts[sflats] - ways
        kept = order[keep]
        kflats = sflats[keep]
        kways = rank[keep] % ways
        klines = lines[kept]
        kflags = flags[kept]
        slots = kflats * ways + kways
        self.tags.fill(-1)
        self.flags.fill(0)
        self.stamps.fill(0)
        self.tags[slots] = klines
        self.flags[slots] = kflags
        self.stamps[slots] = kept + (self._tick + 1)
        self._tick += n
        self._size = np.minimum(counts, ways).tolist()
        io = (kflags & LINE_IO) != 0
        self._n_io = np.bincount(kflats[io], minlength=self.n_sets).tolist()
        self._dir = dict(zip(klines.tolist(), slots.tolist()))
        # The line at set rank j drops the one at rank j - ways, which
        # sits ``ways`` places before it in the set-sorted order.
        drop = np.flatnonzero(~keep)
        return order[drop][np.argsort(order[drop + ways])]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lines_in_lru_order(self, flat: int) -> list[tuple[int, int]]:
        """Resident ``(line, flags)`` pairs, LRU first — the order the
        legacy OrderedDict iterated in."""
        row = slice(flat * self.ways, (flat + 1) * self.ways)
        rows = (self.stamps[row], self.tags[row], self.flags[row])
        resident = sorted(
            (stamp, line, flags)
            for stamp, line, flags in zip(*(r.tolist() for r in rows))
            if line != -1
        )
        return [(line, flags) for _stamp, line, flags in resident]

    # ------------------------------------------------------------------
    # Batched kernels
    # ------------------------------------------------------------------
    def lookup_many(self, lines: np.ndarray) -> np.ndarray:
        """The slot of every line of ``lines``, -1 where it is absent: one
        directory read per line, no set id needed.  Reflects the state
        *before* any of the accesses — callers must ensure no eviction can
        intervene (see :meth:`repro.cache.llc.SlicedLLC.access_many`)."""
        n = len(lines)
        return np.fromiter(
            map(self._dir.get, lines.tolist(), repeat(-1, n)), np.int64, count=n
        )

    def rx_burst_apply(
        self,
        flats: list[int],
        lines: list[int],
        kinds: list[int],
        stamp_offs: list[int],
        total_ops: int,
        io_cap: int,
    ) -> RxBurstCounts:
        """Apply a multi-frame rx burst's cache-op stream; return its counts.

        The caller (the NIC's drained-burst path, through
        :meth:`repro.cache.llc.SlicedLLC.rx_burst`) has already flattened
        a sequence of received frames into one ordered stream of
        *footprint* ops, as parallel lists of Python ints — ``kinds``
        0 = DMA fill, 1 = CPU read, 2 = CPU write — where
        the driver's re-touches of lines its own frame just filled are
        *folded away*: they can never miss, so only their tick positions
        matter, and ``stamp_offs[i]`` carries the 0-based position of the
        **last** op on that line within the burst's ``total_ops`` ticks.
        Replaying the stream sequentially would therefore leave line ``i``
        stamped ``tick + 1 + stamp_offs[i]``, which is what this writes;
        the tick ends ``total_ops`` on.

        A fill that misses evicts the set's LRU I/O line once the set
        holds ``io_cap`` I/O lines (the DDIO way cap, at least 1, so there
        is one), else the LRU line of a full set; a CPU op that misses
        evicts the LRU line of a full set.  A fill that hits converts a
        CPU line to I/O, as :meth:`mark_io` does.  Only the order of one
        set's ops matters, and the stream lists same-set ops in ascending
        position order, which the NIC's burst layout guarantees (a frame's
        buffer lines occupy distinct sets, skb ops follow every folded
        final, frames are appended in arrival order).

        The burst runs as one pass in stream order: one directory lookup
        per op, and a victim search (:meth:`_lru_way`) or a read of the
        set's row only where a miss picks a way.  It leaves the state that
        running the unfolded ops one at a time through ``io_write`` and
        ``cpu_access`` leaves, pinned by ``tests/test_rx_equivalence.py``.
        """
        ways = self.ways
        directory = self._dir
        size_l = self._size
        n_io_l = self._n_io
        tags = self.tags
        flags = self.flags
        stamps = self.stamps
        lru_way = self._lru_way
        stamp0 = self._tick + 1
        io_dirty = LINE_IO | LINE_DIRTY
        fill_hits = new_fills = cpu_hits = cpu_misses = 0
        dirty = io_by_fill = io_by_cpu = 0
        cpu_by_fill: list[int] = []
        for flat, line, kind, off in zip(flats, lines, kinds, stamp_offs):
            slot = directory.get(line)
            if slot is not None:
                if kind == 0:
                    fill_hits += 1
                    old = flags.item(slot)
                    if old != io_dirty:
                        if not old & LINE_IO:
                            n_io_l[flat] += 1
                        flags[slot] = io_dirty
                else:
                    cpu_hits += 1
                    if kind == 2:
                        flags[slot] = flags.item(slot) | LINE_DIRTY
                stamps[slot] = stamp0 + off
                continue
            base = flat * ways
            full = size_l[flat] >= ways
            if kind == 0:
                new_fills += 1
            else:
                cpu_misses += 1
            if kind == 0 and n_io_l[flat] >= io_cap:
                victim = lru_way(flat, 0, ways, True)
            else:
                victim = lru_way(flat, 0, ways) if full else -1
            if victim < 0:
                way = tags[base : base + ways].tolist().index(-1)
                size_l[flat] += 1
            else:
                vslot = base + victim
                vline = tags.item(vslot)
                vflags = flags.item(vslot)
                del directory[vline]
                if vflags & LINE_DIRTY:
                    dirty += 1
                if vflags & LINE_IO:
                    n_io_l[flat] -= 1
                    if kind == 0:
                        io_by_fill += 1
                    else:
                        io_by_cpu += 1
                elif kind == 0:
                    cpu_by_fill.append(vline)
                way = victim
                if not full:
                    # A cap eviction in a set with a free way: the fill
                    # takes the first free way, which may precede the
                    # victim's.
                    free = tags[base : base + ways].tolist().index(-1)
                    if free < victim:
                        way = free
                        tags[vslot] = -1
                        flags[vslot] = 0
                        stamps[vslot] = 0
            slot = base + way
            tags[slot] = line
            stamps[slot] = stamp0 + off
            directory[line] = slot
            if kind == 0:
                flags[slot] = io_dirty
                n_io_l[flat] += 1
            else:
                flags[slot] = LINE_DIRTY if kind == 2 else 0
        self._tick += total_ops
        return RxBurstCounts(
            fill_hits, new_fills, cpu_hits, cpu_misses, dirty, io_by_fill, io_by_cpu,
            cpu_by_fill,
        )

    def touch_many(
        self,
        slots: np.ndarray,
        set_dirty: bool = False,
        repeats: int = 1,
        positions: np.ndarray | None = None,
    ) -> None:
        """Bulk MRU-stamp the resident lines at ``slots`` (as
        :meth:`lookup_many` returns them) in order.

        Stamps are assigned in array order from the shared tick counter, so
        within any one set the relative recency matches a sequential touch
        of the same accesses.  Duplicate positions are fine: numpy fancy
        assignment keeps the *last* stamp, which is what sequential
        touching would do.

        ``repeats`` > 1 applies that many back-to-back touches of the same
        positions: each repetition overwrites every stamp the previous one
        left, so the tick advances by ``n * repeats`` and only the last
        repetition's stamps are written.

        ``positions`` (ascending) places the touches inside a longer batch
        whose other accesses run one at a time: line ``i`` is stamped
        ``tick + 1 + positions[i]``, as if the batch ran in order, and the
        tick does not move.  The caller then runs the other accesses,
        passing over each run of positions stamped here with :meth:`skip`.
        """
        n = len(slots)
        if not n:
            return
        if positions is not None:
            self.stamps[slots] = positions + (self._tick + 1)
        else:
            t0 = self._tick + 1 + n * (repeats - 1)
            self._tick += n * repeats
            self.stamps[slots] = np.arange(t0, t0 + n, dtype=np.int64)
        if set_dirty:
            self.flags[slots] |= LINE_DIRTY

    def skip(self, n: int) -> None:
        """Advance the tick over ``n`` batch positions that
        :meth:`touch_many` stamped ahead of it."""
        self._tick += n
