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
the in-order rx pass) goes through one helper, :meth:`CacheEngine._lru_way`,
which finds the minimum stamp of one row with a Python loop over the
row's stamps (and flags, for one origin), or one ``argmin`` when every
way holds a line.

A single Python dict (``line -> way``) is kept as a directory for O(1)
scalar lookups, and small Python lists track per-set occupancy and
I/O-line counts.  The line alone keys the directory because a resident
line sits in exactly one set: the caller's index mapping is a function
of the line, and a re-key (:meth:`CacheEngine.reload`) places every line
afresh.  The numpy arrays are the ground truth that the *batched*
kernels operate on: :meth:`lookup_many`/:meth:`touch_many` resolve and
touch thousands of accesses with a handful of vectorised operations,
which is what lets a PRIME+PROBE sweep issue one engine call instead of
one Python call per line.

Semantics are differentially tested against the legacy model
(``tests/test_engine_equivalence.py``): identical eviction decisions,
stats attribution and probe results on randomized CPU/DMA/flush/partition
traces.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cache.cacheset import LINE_DIRTY, LINE_IO

#: Bursts of at least this many ops take the round-by-rank kernel; shorter
#: ones take the in-order pass.  Set where the two cost the same on the rx
#: hot-path stream's bursts (``scripts/rx_crossover.py``; PERFORMANCE.md,
#: "The rx datapath").
ROUND_KERNEL_MIN_OPS = 360

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

    Most methods take a *flat set id* (slice-major, as produced by
    :meth:`repro.cache.llc.SlicedLLC.flat_set_of`) plus a line address,
    and a line must not be inserted while it is resident in another set.
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
        "tags2",
        "flags2",
        "stamps2",
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
        # 2-D views over the same memory, for row gathers in batched ops.
        self.tags2 = self.tags.reshape(n_sets, ways)
        self.flags2 = self.flags.reshape(n_sets, ways)
        self.stamps2 = self.stamps.reshape(n_sets, ways)
        self._size = [0] * n_sets
        self._n_io = [0] * n_sets
        #: Directory: resident line -> its way in its set.
        self._dir: dict[int, int] = {}
        self._tick = 0

    # ------------------------------------------------------------------
    # Scalar lookups
    # ------------------------------------------------------------------
    def contains(self, line: int) -> bool:
        return line in self._dir

    def flags_of(self, flat: int, line: int) -> int | None:
        """Flags of a resident line, or None if absent (no LRU update)."""
        way = self._dir.get(line)
        if way is None:
            return None
        return self.flags.item(flat * self.ways + way)

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
    def touch(self, flat: int, line: int, set_dirty: bool = False) -> bool:
        """Access a line; True on hit (stamps it MRU, optionally dirties)."""
        way = self._dir.get(line)
        if way is None:
            return False
        idx = flat * self.ways + way
        self._tick += 1
        self.stamps[idx] = self._tick
        if set_dirty:
            self.flags[idx] |= LINE_DIRTY
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
            evicted = self._drop(flat, base + way)
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
        return self._drop(flat, flat * self.ways + self._lru_way(flat, 0, self.ways))

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
            evicted = self._drop(flat, base + way)
        self._put(flat, way, line, flags)
        return evicted

    def evict_lru_in(self, flat: int, lo: int, hi: int) -> tuple[int, int]:
        """Evict the LRU line among ways ``[lo, hi)`` of a set."""
        way = self._lru_way(flat, lo, hi)
        if way < 0:
            raise LookupError("evict_lru_in on empty way range")
        return self._drop(flat, flat * self.ways + way)

    def evict_lru_of(self, flat: int, io: bool) -> tuple[int, int] | None:
        """Evict the LRU line whose origin matches ``io``; None if no match."""
        way = self._lru_way(flat, 0, self.ways, io)
        return None if way < 0 else self._drop(flat, flat * self.ways + way)

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

    def invalidate(self, flat: int, line: int) -> int | None:
        """Drop a line without eviction bookkeeping; return its flags."""
        way = self._dir.get(line)
        if way is None:
            return None
        _line, flags = self._drop(flat, flat * self.ways + way)
        return flags

    def mark_io(self, flat: int, line: int) -> None:
        """Convert a resident line to a dirty I/O line and stamp it MRU."""
        way = self._dir.get(line)
        if way is None:
            raise LookupError(f"line {line:#x} not resident")
        idx = flat * self.ways + way
        flags = self.flags.item(idx)
        if not (flags & LINE_IO):
            self._n_io[flat] += 1
        self.flags[idx] = flags | LINE_IO | LINE_DIRTY
        self._tick += 1
        self.stamps[idx] = self._tick

    def _put(self, flat: int, way: int, line: int, flags: int) -> None:
        """Place a new line, stamped MRU, in a free way of a set."""
        idx = flat * self.ways + way
        self.tags[idx] = line
        self.flags[idx] = flags
        self._tick += 1
        self.stamps[idx] = self._tick
        self._dir[line] = way
        self._size[flat] += 1
        if flags & LINE_IO:
            self._n_io[flat] += 1

    def _drop(self, flat: int, idx: int) -> tuple[int, int]:
        """Remove the line at flat index ``idx``; return (line, flags)."""
        line = self.tags.item(idx)
        flags = self.flags.item(idx)
        self.tags[idx] = -1
        self.flags[idx] = 0
        self.stamps[idx] = 0
        del self._dir[line]
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
        self._dir = dict(zip(klines.tolist(), kways.tolist()))
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
    def lookup_many(
        self, flats: np.ndarray, lines: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised residency check.

        Returns ``(hit, way)`` arrays; ``way`` is only meaningful where
        ``hit`` is True.  Reflects the state *before* any of the accesses —
        callers must ensure no eviction can intervene (see
        :meth:`repro.cache.llc.SlicedLLC.access_many`).
        """
        rows = self.tags2[flats]
        eq = rows == lines[:, None]
        return eq.any(axis=1), eq.argmax(axis=1)

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
        stamped ``tick + 1 + stamp_offs[i]``, which is what both paths
        below write; the tick ends ``total_ops`` on.

        A fill that misses evicts the set's LRU I/O line once the set
        holds ``io_cap`` I/O lines (the DDIO way cap, at least 1, so there
        is one), else the LRU line of a full set; a CPU op that misses
        evicts the LRU line of a full set.  A fill that hits converts a
        CPU line to I/O, as :meth:`mark_io` does.  Only the order of one
        set's ops matters, and the stream lists same-set ops in ascending
        position order, which the NIC's burst layout guarantees (a frame's
        buffer lines occupy distinct sets, skb ops follow every folded
        final, frames are appended in arrival order).

        A burst of fewer than :data:`ROUND_KERNEL_MIN_OPS` ops runs as one
        in-order scalar pass over the lists (:meth:`_rx_in_order`); a
        longer one runs in rounds by within-set rank (:meth:`_rx_rounds`)
        over arrays of them, whose fixed numpy cost per round pays only
        on long bursts.  Both leave the same
        state and return the same :class:`RxBurstCounts`, pinned by
        ``tests/test_rx_equivalence.py``.
        """
        if len(flats) < ROUND_KERNEL_MIN_OPS:
            counts = self._rx_in_order(flats, lines, kinds, stamp_offs, io_cap)
        else:
            counts = self._rx_rounds(flats, lines, kinds, stamp_offs, io_cap)
        self._tick += total_ops
        return counts

    def _rx_in_order(
        self,
        flats: list[int],
        lines: list[int],
        kinds: list[int],
        stamp_offs: list[int],
        io_cap: int,
    ) -> RxBurstCounts:
        """The burst as one pass in stream order: one directory lookup per
        op, and a victim search (:meth:`_lru_way`) or a read of the set's
        row only where a miss picks a way."""
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
            way = directory.get(line)
            if way is not None:
                slot = flat * ways + way
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
            directory[line] = way
            if kind == 0:
                flags[slot] = io_dirty
                n_io_l[flat] += 1
            else:
                flags[slot] = LINE_DIRTY if kind == 2 else 0
        return RxBurstCounts(
            fill_hits, new_fills, cpu_hits, cpu_misses, dirty, io_by_fill, io_by_cpu,
            cpu_by_fill,
        )

    def _rx_rounds(
        self,
        flats: list[int],
        lines: list[int],
        kinds: list[int],
        stamp_offs: list[int],
        io_cap: int,
    ) -> RxBurstCounts:
        """The burst in rounds by within-set rank.

        Per-set state is independent across sets and the only
        order-sensitive decisions (victim selection) are confined to one
        set, so round ``r`` takes each set's ``r``-th op in stream order.
        Within a round every set appears at most once, which makes a
        vectorised hit/insert step exact against the live arrays — and
        since a round's stamps/tags land before the next round's gather,
        cross-op effects inside a set (a fill evicting a line a later op
        re-misses on, a second fill of the same line becoming a mark-io
        hit) resolve exactly as the sequential loop would.  Structural
        misses under the DDIO way cap make multi-miss sets the *common*
        case at line rate, so the kernel is total: it never declines.
        Same-set ops are listed in ascending position order, so a stable
        sort on ``flats`` alone yields the rank.
        """
        flats, lines, kinds, stamp_offs = (
            np.asarray(a, dtype=np.int64) for a in (flats, lines, kinds, stamp_offs)
        )
        ways = self.ways
        n = len(flats)
        base_stamp = self._tick + 1
        # Rank ops within their set.  Sets referenced once (the vast
        # majority) need no ordering at all; only the duplicate subset is
        # stable-sorted, which is far cheaper than sorting the full burst.
        counts = np.bincount(flats, minlength=self.n_sets)
        dup_mask = counts[flats] > 1
        if dup_mask.any():
            dup_idx = np.flatnonzero(dup_mask)
            sorder = np.argsort(flats[dup_idx], kind="stable")
            sordered = dup_idx[sorder]
            sflats = flats[sordered]
            m = len(sordered)
            seq = np.arange(m)
            firsts = np.empty(m, dtype=bool)
            firsts[:1] = True
            firsts[1:] = sflats[1:] != sflats[:-1]
            rank_sub = seq - np.maximum.accumulate(np.where(firsts, seq, 0))
            n_rounds = int(rank_sub.max()) + 1
            rounds = [
                np.concatenate([np.flatnonzero(~dup_mask), sordered[firsts]])
            ]
            for r in range(1, n_rounds):
                rounds.append(sordered[rank_sub == r])
        else:
            rounds = [None]
        hit_all = np.empty(n, dtype=bool)
        ev_pos_parts: list[np.ndarray] = []
        ev_lines_parts: list[np.ndarray] = []
        ev_flags_parts: list[np.ndarray] = []
        directory = self._dir
        size_l = self._size
        n_io_l = self._n_io
        for sel in rounds:
            if sel is None:
                f, ln, k = flats, lines, kinds
            else:
                f = flats[sel]
                ln = lines[sel]
                k = kinds[sel]
            tag_rows = self.tags2[f]
            eq = tag_rows == ln[:, None]
            way = eq.argmax(axis=1)
            # argmax returns 0 for an all-False row; one 1-D gather
            # distinguishes hits (cheaper than a row-wise ``any``).
            hit = tag_rows[np.arange(len(f)), way] == ln
            if sel is None:
                hit_all = hit
            else:
                hit_all[sel] = hit
            if not hit.all():
                m_idx = np.flatnonzero(~hit)
                mflats = f[m_idx]
                mkinds = k[m_idx]
                trows = tag_rows[m_idx]
                frows = self.flags2[mflats]
                srows = self.stamps2[mflats]
                io_rows = (frows & LINE_IO) != 0
                occupied = trows != -1
                io_counts = io_rows.sum(axis=1)
                full = occupied.sum(axis=1) >= ways
                is_fill = mkinds == 0
                # A fill evicts the set's LRU I/O line at the cap (at least
                # 1, so there is one), else the LRU line of a full set.
                at_cap = is_fill & (io_counts >= io_cap)
                victim_io = np.where(io_rows, srows, _BIG).argmin(axis=1)
                victim_any = np.where(occupied, srows, _BIG).argmin(axis=1)
                # First free way: empty slots hold -1, the row minimum.  A
                # cap eviction in a non-full set inserts into the first
                # empty slot, which may precede the victim's.
                free_way = trows.argmin(axis=1)
                way_m = np.where(
                    at_cap,
                    np.where(full, victim_io, np.minimum(free_way, victim_io)),
                    np.where(full, victim_any, free_way),
                )
                evict = at_cap | full
                rows_m = np.arange(len(m_idx))
                evict_way = np.where(at_cap, victim_io, victim_any)
                e_lines = np.where(evict, trows[rows_m, evict_way], -1)
                e_flags = np.where(evict, frows[rows_m, evict_way], 0)
                ev_sel = np.flatnonzero(evict)
                ev_slots = mflats[ev_sel] * ways + evict_way[ev_sel]
                self.tags[ev_slots] = -1
                self.flags[ev_slots] = 0
                self.stamps[ev_slots] = 0
                ev_io = (e_flags & LINE_IO) != 0
                for flat, line, evl, eio, w, isf in zip(
                    mflats.tolist(),
                    ln[m_idx].tolist(),
                    e_lines.tolist(),
                    ev_io.tolist(),
                    way_m.tolist(),
                    is_fill.tolist(),
                ):
                    if evl != -1:
                        del directory[evl]
                        size_l[flat] -= 1
                        if eio:
                            n_io_l[flat] -= 1
                    directory[line] = w
                    size_l[flat] += 1
                    if isf:
                        n_io_l[flat] += 1
                way[m_idx] = way_m
                if len(ev_sel):
                    ev_pos_parts.append(
                        m_idx[ev_sel] if sel is None else sel[m_idx[ev_sel]]
                    )
                    ev_lines_parts.append(e_lines[ev_sel])
                    ev_flags_parts.append(e_flags[ev_sel])
            idx = f * ways + way
            # A fill converts a resident CPU line to I/O (mark_io);
            # within a round each set — hence each line — appears once,
            # and later rounds re-read the flags, so no dedup is needed.
            rf_idx = idx[hit & (k == 0)]
            not_io = (self.flags[rf_idx] & LINE_IO) == 0
            if not_io.any():
                for slot in rf_idx[not_io].tolist():
                    n_io_l[slot // ways] += 1
            # Fills OR in IO|DIRTY, writes OR in DIRTY; reads leave flags
            # untouched.  Freshly inserted slots were cleared, so the OR
            # lands exactly the scalar insert's flags there too.
            nonread = k != 1
            nr_idx = idx[nonread]
            bits = np.where(
                k[nonread] == 0, LINE_IO | LINE_DIRTY, LINE_DIRTY
            ).astype(np.uint8)
            self.flags[nr_idx] = self.flags[nr_idx] | bits
            self.tags[idx] = ln
            offs = stamp_offs if sel is None else stamp_offs[sel]
            self.stamps[idx] = offs + base_stamp
        fill = kinds == 0
        n_fill = int(fill.sum())
        fill_hits = int((hit_all & fill).sum())
        cpu_hits = int(hit_all.sum()) - fill_hits
        dirty = io_by_fill = io_by_cpu = 0
        cpu_by_fill: list[int] = []
        if ev_pos_parts:
            ev_pos = np.concatenate(ev_pos_parts)
            ev_lines = np.concatenate(ev_lines_parts)
            ev_flags = np.concatenate(ev_flags_parts)
            dirty = int(((ev_flags & LINE_DIRTY) != 0).sum())
            victim_io = (ev_flags & LINE_IO) != 0
            by_fill = fill[ev_pos]
            io_by_fill = int((by_fill & victim_io).sum())
            io_by_cpu = int(victim_io.sum()) - io_by_fill
            displaced = by_fill & ~victim_io
            # Rounds evict out of stream order; report the lines in it.
            cpu_by_fill = ev_lines[displaced][np.argsort(ev_pos[displaced])].tolist()
        return RxBurstCounts(
            fill_hits, n_fill - fill_hits, cpu_hits, n - n_fill - cpu_hits, dirty,
            io_by_fill, io_by_cpu, cpu_by_fill,
        )

    def touch_many(
        self,
        flats: np.ndarray,
        ways: np.ndarray,
        set_dirty: bool = False,
        repeats: int = 1,
        positions: np.ndarray | None = None,
    ) -> None:
        """Bulk MRU-stamp resident lines at ``(flats, ways)`` in order.

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
        n = len(flats)
        if not n:
            return
        idx = flats * self.ways + ways
        if positions is not None:
            self.stamps[idx] = positions + (self._tick + 1)
        else:
            t0 = self._tick + 1 + n * (repeats - 1)
            self._tick += n * repeats
            self.stamps[idx] = np.arange(t0, t0 + n, dtype=np.int64)
        if set_dirty:
            self.flags[idx] |= LINE_DIRTY

    def skip(self, n: int) -> None:
        """Advance the tick over ``n`` batch positions that
        :meth:`touch_many` stamped ahead of it."""
        self._tick += n
