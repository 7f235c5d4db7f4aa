"""Packed array-backed storage for every set of the sliced LLC.

The legacy model kept one ``OrderedDict`` per cache set (see
:mod:`repro.cache.legacy`), which makes every simulated access a Python
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

A single Python dict (``(set, line) -> way``, encoded as one integer key)
is kept as a directory for O(1) scalar lookups, and small Python lists
track per-set occupancy and I/O-line counts.  The numpy arrays are the
ground truth that the *batched* kernels operate on:
:meth:`lookup_many`/:meth:`touch_many` resolve and touch thousands of
accesses with a handful of vectorised operations, which is what lets a
PRIME+PROBE sweep issue one engine call instead of one Python call per
line.

Semantics are differentially tested against the legacy model
(``tests/test_engine_equivalence.py``): identical eviction decisions,
stats attribution and probe results on randomized CPU/DMA/flush/partition
traces.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cacheset import LINE_DIRTY, LINE_IO


class CacheEngine:
    """Flat-array storage and LRU policy for ``n_sets`` x ``ways`` lines.

    All methods take a *flat set id* (slice-major, as produced by
    :meth:`repro.cache.llc.SlicedLLC.flat_set_of`) plus a line address.
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
        "_line_span",
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
        #: Directory: (flat * line_span + line) -> way.  ``line_span`` is a
        #: power of two above any line address so keys never collide.
        self._dir: dict[int, int] = {}
        self._tick = 0
        self._line_span = 1 << 58

    # ------------------------------------------------------------------
    # Key encoding
    # ------------------------------------------------------------------
    def _key(self, flat: int, line: int) -> int:
        return flat * self._line_span + line

    # ------------------------------------------------------------------
    # Scalar lookups
    # ------------------------------------------------------------------
    def contains(self, flat: int, line: int) -> bool:
        return (flat * self._line_span + line) in self._dir

    def flags_of(self, flat: int, line: int) -> int | None:
        """Flags of a resident line, or None if absent (no LRU update)."""
        way = self._dir.get(flat * self._line_span + line)
        if way is None:
            return None
        return int(self.flags[flat * self.ways + way])

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
        way = self._dir.get(flat * self._line_span + line)
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
        as the legacy ``CacheSet.insert``.
        """
        evicted = None
        if self._size[flat] >= self.ways:
            evicted = self.evict_lru(flat)
        base = flat * self.ways
        # Find a free way: tags slice scan (size < ways guarantees one).
        row = self.tags[base : base + self.ways]
        way = int(np.argmin(row))  # empty ways hold -1 == the row minimum
        if row[way] != -1:  # pragma: no cover - guarded by size bookkeeping
            raise RuntimeError(f"set {flat} full despite size {self._size[flat]}")
        idx = base + way
        self.tags[idx] = line
        self.flags[idx] = flags
        self._tick += 1
        self.stamps[idx] = self._tick
        self._dir[flat * self._line_span + line] = way
        self._size[flat] += 1
        if flags & LINE_IO:
            self._n_io[flat] += 1
        return evicted

    def evict_lru(self, flat: int) -> tuple[int, int]:
        """Evict and return the least recently used line of a set."""
        if not self._size[flat]:
            raise LookupError("evict_lru on empty set")
        base = flat * self.ways
        stamps = self.stamps[base : base + self.ways]
        if self._size[flat] == self.ways:
            way = int(np.argmin(stamps))
        else:
            # Skip empty ways (stamp irrelevant): pick min among occupied.
            row = self.tags[base : base + self.ways]
            occupied = row != -1
            way = int(np.where(occupied, stamps, np.iinfo(np.int64).max).argmin())
        return self._drop(flat, base + way)

    def insert_in(
        self, flat: int, line: int, flags: int, lo: int, hi: int
    ) -> tuple[int, int] | None:
        """Insert as MRU using only ways ``[lo, hi)`` — the skewed backend's
        candidate-way restriction.  Evicts the range's LRU line if the
        range is full; returns the evicted ``(line, flags)`` or None.
        """
        base = flat * self.ways
        row = self.tags[base + lo : base + hi]
        evicted = None
        if (row != -1).all():
            evicted = self.evict_lru_in(flat, lo, hi)
            row = self.tags[base + lo : base + hi]
        way = lo + int(np.argmin(row))  # empty ways hold -1, the row minimum
        idx = base + way
        self.tags[idx] = line
        self.flags[idx] = flags
        self._tick += 1
        self.stamps[idx] = self._tick
        self._dir[flat * self._line_span + line] = way
        self._size[flat] += 1
        if flags & LINE_IO:
            self._n_io[flat] += 1
        return evicted

    def evict_lru_in(self, flat: int, lo: int, hi: int) -> tuple[int, int]:
        """Evict the LRU line among ways ``[lo, hi)`` of a set."""
        base = flat * self.ways
        row = self.tags[base + lo : base + hi]
        occupied = row != -1
        if not occupied.any():
            raise LookupError("evict_lru_in on empty way range")
        stamps = np.where(
            occupied,
            self.stamps[base + lo : base + hi],
            np.iinfo(np.int64).max,
        )
        way = lo + int(stamps.argmin())
        return self._drop(flat, base + way)

    def evict_lru_of(self, flat: int, io: bool) -> tuple[int, int] | None:
        """Evict the LRU line whose origin matches ``io``; None if no match."""
        count = self._n_io[flat] if io else self._size[flat] - self._n_io[flat]
        if not count:
            return None
        base = flat * self.ways
        row = self.tags[base : base + self.ways]
        flag_row = self.flags[base : base + self.ways]
        match = (row != -1) & (((flag_row & LINE_IO) != 0) == io)
        stamps = np.where(match, self.stamps[base : base + self.ways], np.iinfo(np.int64).max)
        way = int(stamps.argmin())
        return self._drop(flat, base + way)

    def invalidate(self, flat: int, line: int) -> int | None:
        """Drop a line without eviction bookkeeping; return its flags."""
        way = self._dir.get(flat * self._line_span + line)
        if way is None:
            return None
        _line, flags = self._drop(flat, flat * self.ways + way)
        return flags

    def mark_io(self, flat: int, line: int) -> None:
        """Convert a resident line to a dirty I/O line and stamp it MRU."""
        way = self._dir.get(flat * self._line_span + line)
        if way is None:
            raise LookupError(f"line {line:#x} not resident")
        idx = flat * self.ways + way
        flags = int(self.flags[idx])
        if not (flags & LINE_IO):
            self._n_io[flat] += 1
        self.flags[idx] = flags | LINE_IO | LINE_DIRTY
        self._tick += 1
        self.stamps[idx] = self._tick

    def _drop(self, flat: int, idx: int) -> tuple[int, int]:
        """Remove the line at flat index ``idx``; return (line, flags)."""
        line = int(self.tags[idx])
        flags = int(self.flags[idx])
        self.tags[idx] = -1
        self.flags[idx] = 0
        self.stamps[idx] = 0
        del self._dir[flat * self._line_span + line]
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
        # Python ints: flat * 2**58 overflows int64 from flat 32 up.
        span = self._line_span
        self._dir.clear()
        self._dir.update(
            (flat * span + line, way)
            for flat, line, way in zip(kflats.tolist(), klines.tolist(), kways.tolist())
        )
        # The line at set rank j drops the one at rank j - ways, which
        # sits ``ways`` places before it in the set-sorted order.
        drop = np.flatnonzero(~keep)
        return order[drop][np.argsort(order[drop + ways])]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lines_in_lru_order(self, flat: int, io: bool | None = None) -> list[tuple[int, int]]:
        """Resident ``(line, flags)`` pairs, LRU first, optionally filtered
        to one origin — the order the legacy OrderedDict iterated in."""
        base = flat * self.ways
        out = []
        for way in range(self.ways):
            line = int(self.tags[base + way])
            if line == -1:
                continue
            flags = int(self.flags[base + way])
            if io is not None and bool(flags & LINE_IO) != io:
                continue
            out.append((int(self.stamps[base + way]), line, flags))
        out.sort()
        return [(line, flags) for _stamp, line, flags in out]

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

    def io_fill_many(
        self, flats: np.ndarray, lines: np.ndarray, io_cap: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vanilla-DDIO bulk fill of one line per set (``flats`` unique).

        Performs, for every ``(flat, line)`` pair, exactly what the scalar
        DDIO sequence does: a resident line is converted to a dirty I/O
        line and stamped MRU (``mark_io``); a non-resident line is inserted
        as ``LINE_IO | LINE_DIRTY``, evicting the set's LRU I/O line when
        the set already holds ``io_cap`` I/O lines, or the overall LRU line
        when the set is full.  Stamps are assigned in array order from the
        shared tick counter — each access consumes one tick and evictions
        consume none, so the batch is tick-for-tick identical to the
        sequential loop.

        ``flats`` must not contain duplicates: victim selection reads a
        snapshot of the rows, so two fills into the same set would not see
        each other.  Callers (``SlicedLLC.io_write_many``) fall back to the
        scalar path in that case.

        Returns ``(resident, evicted_lines, evicted_flags)``: a bool mask
        of accesses that were mark-io hits, and per-access evicted line
        address (``-1`` where nothing was evicted) with its flags.
        """
        k = len(flats)
        empty = np.zeros(0, dtype=np.int64)
        if not k:
            return np.zeros(0, dtype=bool), empty, empty
        ways = self.ways
        tag_rows = self.tags2[flats]
        flag_rows = self.flags2[flats]
        stamp_rows = self.stamps2[flats]
        eq = tag_rows == lines[:, None]
        resident = eq.any(axis=1)
        res_way = eq.argmax(axis=1)
        io_rows = (flag_rows & LINE_IO) != 0
        occupied = tag_rows != -1
        big = np.iinfo(np.int64).max
        io_counts = io_rows.sum(axis=1)
        # evict_lru_of(io=True) is a no-op on a set with no I/O lines, so
        # "at cap" only triggers an eviction when there is one to evict.
        at_cap = (io_counts >= io_cap) & (io_counts > 0)
        sizes = occupied.sum(axis=1)
        full = sizes >= ways
        victim_io = np.where(io_rows, stamp_rows, big).argmin(axis=1)
        victim_any = np.where(occupied, stamp_rows, big).argmin(axis=1)
        # First free way: empty slots hold -1, the row minimum.  When an
        # io-cap eviction happens in a non-full set, the scalar insert scans
        # for the first empty slot — which may precede the victim's.
        free_way = tag_rows.argmin(axis=1)
        way = np.where(
            resident,
            res_way,
            np.where(
                at_cap,
                np.where(full, victim_io, np.minimum(free_way, victim_io)),
                np.where(full, victim_any, free_way),
            ),
        )
        evict = ~resident & (at_cap | full)
        rows = np.arange(k)
        evict_way = np.where(at_cap, victim_io, victim_any)
        evicted_lines = np.where(evict, tag_rows[rows, evict_way], -1)
        evicted_flags = np.where(evict, flag_rows[rows, evict_way], 0)
        idx = flats * ways + way
        # Clear the evicted slots first: the victim slot differs from the
        # placement slot when the set had an earlier free way.
        ev_idx = flats[evict] * ways + evict_way[evict]
        self.tags[ev_idx] = -1
        self.flags[ev_idx] = 0
        self.stamps[ev_idx] = 0
        self.tags[idx] = lines
        # The only flag bits are IO and DIRTY, and the fill sets both — for
        # a resident line this equals ``old | IO | DIRTY``, i.e. mark_io.
        self.flags[idx] = LINE_IO | LINE_DIRTY
        t0 = self._tick + 1
        self._tick += k
        self.stamps[idx] = np.arange(t0, t0 + k, dtype=np.int64)
        # Directory and per-set counter bookkeeping (scalar, but tiny).
        span = self._line_span
        size_l = self._size
        n_io_l = self._n_io
        directory = self._dir
        was_io = io_rows[rows, res_way]
        for i, (flat, line, is_res) in enumerate(
            zip(flats.tolist(), lines.tolist(), resident.tolist())
        ):
            if is_res:
                if not was_io[i]:
                    n_io_l[flat] += 1
                continue
            ev = int(evicted_lines[i])
            if ev != -1:
                del directory[flat * span + ev]
                size_l[flat] -= 1
                if evicted_flags[i] & LINE_IO:
                    n_io_l[flat] -= 1
            directory[flat * span + line] = int(way[i])
            size_l[flat] += 1
            n_io_l[flat] += 1
        return resident, evicted_lines, evicted_flags

    def rx_burst_apply(
        self,
        flats: np.ndarray,
        lines: np.ndarray,
        kinds: np.ndarray,
        stamp_offs: np.ndarray,
        total_ops: int,
        io_cap: int,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Apply a multi-frame rx burst's cache-op stream in rounds.

        The caller (the NIC's drained-burst path) has already flattened a
        sequence of received frames into one ordered stream of *footprint*
        ops — ``kinds`` 0 = DMA fill, 1 = CPU read, 2 = CPU write — where
        the driver's re-touches of lines its own frame just filled are
        *folded away*: they can never miss, so only their tick positions
        matter, and ``stamp_offs[i]`` carries the 0-based position of the
        **last** op on that line within the burst's ``total_ops`` ticks.
        Replaying the stream sequentially would therefore leave line ``i``
        stamped ``tick + 1 + stamp_offs[i]``.

        Per-set state is independent across sets and the only
        order-sensitive decisions (victim selection) are confined to one
        set, so the stream is applied in *rounds by within-set rank*: round
        ``r`` takes each set's ``r``-th op in temporal order.  Within a
        round every set appears at most once, which makes the vectorised
        hit/insert logic of :meth:`io_fill_many` exact against the live
        arrays — and since a round's stamps/tags land before the next
        round's gather, cross-op effects inside a set (a fill evicting a
        line a later op re-misses on, a second fill of the same line
        becoming a mark-io hit) resolve exactly as the sequential loop
        would.  Structural misses under the DDIO way cap make multi-miss
        sets the *common* case at line rate, so the kernel is total: it
        never declines.

        One op per set per round relies on the op stream listing same-set
        ops in ascending position order, which the NIC's burst layout
        guarantees (a frame's buffer lines occupy consecutive sets, skb
        ops follow every folded final, frames are appended in arrival
        order) — a stable sort on ``flats`` alone therefore yields the
        temporal rank.

        Returns ``(hit, evict_pos, evicted_lines, evicted_flags)``:
        per-op residency at its point in the stream (not pre-burst
        residency — a line inserted by an earlier op and re-accessed
        counts as the hit the sequential loop would see), plus the ops
        that evicted (``evict_pos`` indexes into the op arrays; all three
        are ``None`` when nothing was evicted).
        """
        ways = self.ways
        n = len(flats)
        t0 = self._tick
        base_stamp = t0 + 1
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
        big = np.iinfo(np.int64).max
        span = self._line_span
        directory = self._dir
        size_l = self._size
        n_io_l = self._n_io
        for sel in rounds:
            if sel is None:
                f, l, k = flats, lines, kinds
            else:
                f = flats[sel]
                l = lines[sel]
                k = kinds[sel]
            tag_rows = self.tags2[f]
            eq = tag_rows == l[:, None]
            way = eq.argmax(axis=1)
            # argmax returns 0 for an all-False row; one 1-D gather
            # distinguishes hits (cheaper than a row-wise ``any``).
            hit = tag_rows[np.arange(len(f)), way] == l
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
                at_cap = is_fill & (io_counts >= io_cap) & (io_counts > 0)
                victim_io = np.where(io_rows, srows, big).argmin(axis=1)
                victim_any = np.where(occupied, srows, big).argmin(axis=1)
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
                    l[m_idx].tolist(),
                    e_lines.tolist(),
                    ev_io.tolist(),
                    way_m.tolist(),
                    is_fill.tolist(),
                ):
                    if evl != -1:
                        del directory[flat * span + evl]
                        size_l[flat] -= 1
                        if eio:
                            n_io_l[flat] -= 1
                    directory[flat * span + line] = w
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
            self.tags[idx] = l
            offs = stamp_offs if sel is None else stamp_offs[sel]
            self.stamps[idx] = offs + base_stamp
        self._tick = t0 + total_ops
        if ev_pos_parts:
            return (
                hit_all,
                np.concatenate(ev_pos_parts),
                np.concatenate(ev_lines_parts),
                np.concatenate(ev_flags_parts),
            )
        return hit_all, None, None, None

    def touch_many(
        self,
        flats: np.ndarray,
        ways: np.ndarray,
        set_dirty: bool = False,
        repeats: int = 1,
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
        """
        n = len(flats)
        if not n:
            return
        idx = flats * self.ways + ways
        t0 = self._tick + 1 + n * (repeats - 1)
        self._tick += n * repeats
        self.stamps[idx] = np.arange(t0, t0 + n, dtype=np.int64)
        if set_dirty:
            self.flags[idx] |= LINE_DIRTY
