"""Levenshtein (edit) distance and sequence-quality metrics.

The paper uses edit distance twice: Table I scores the recovered ring-buffer
sequence against the instrumented ground truth, and Section IV estimates the
covert channel's error rate by the edit distance between sent and received
pseudo-random sequences.  ``cyclic_levenshtein`` handles the fact that a
recovered *ring* has an arbitrary starting point.

The dynamic programs here run row-vectorised in NumPy: elements are first
encoded to integer codes, each DP row is produced with two array minimums,
and the sequential insertion recurrence ``d[j] = min(d[j], d[j-1] + 1)``
collapses to a prefix minimum of ``d[j] - j`` (subtracting the column index
turns the +1-per-step chain into a running minimum).  Integer arithmetic
throughout, so results are bit-identical to the frozen scalar DP in
:mod:`repro.analysis.legacy` — ``tests/test_analysis_equivalence.py`` pins
that equivalence on randomized inputs.  ``cyclic_levenshtein`` and
``best_rotation`` batch *all* candidate rotations through one DP whose rows
carry a rotation axis.  Elements must be hashable (callers pass ring
positions and symbols).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _encode(a: Sequence, b: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Map elements of both sequences to shared integer codes.

    Equality of codes matches ``==`` on the originals, which holds for any
    consistently-hashable elements.
    """
    table: dict = {}
    ca = np.fromiter(
        (table.setdefault(x, len(table)) for x in a), np.int64, count=len(a)
    )
    cb = np.fromiter(
        (table.setdefault(x, len(table)) for x in b), np.int64, count=len(b)
    )
    return ca, cb


def _row_distance(ca: np.ndarray, cb: np.ndarray) -> int:
    """Rolling-row vectorised DP over encoded sequences (both non-empty)."""
    m = len(cb)
    ar = np.arange(m + 1, dtype=np.int64)
    prev = ar.copy()
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(1, len(ca) + 1):
        cost = (cb != ca[i - 1]).astype(np.int64)
        cur[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + cost, out=cur[1:])
        np.subtract(cur, ar, out=cur)
        np.minimum.accumulate(cur, out=cur)
        np.add(cur, ar, out=cur)
        prev, cur = cur, prev
    return int(prev[-1])


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum number of single-element insertions, deletions and
    substitutions that turn ``a`` into ``b``.

    O(len(a) * len(b)) time, O(min) space; each DP row is one NumPy
    kernel step.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    return _row_distance(*_encode(a, b))


def _rotation_distances(
    recovered: Sequence, doubled: list, starts: Sequence[int], n: int
) -> np.ndarray:
    """Edit distance of ``recovered`` against every ``doubled[s : s + n]``,
    all rotations sharing one DP whose rows have a rotation axis."""
    rec, dbl = _encode(recovered, doubled)
    starts_arr = np.asarray(list(starts), dtype=np.int64)
    rots = dbl[starts_arr[:, None] + np.arange(n, dtype=np.int64)[None, :]]
    nrot = len(starts_arr)
    ar = np.arange(n + 1, dtype=np.int64)
    prev = np.tile(ar, (nrot, 1))
    cur = np.empty_like(prev)
    for i in range(1, len(rec) + 1):
        cost = (rots != rec[i - 1]).astype(np.int64)
        cur[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=cur[:, 1:])
        np.subtract(cur, ar, out=cur)
        np.minimum.accumulate(cur, axis=1, out=cur)
        np.add(cur, ar, out=cur)
        prev, cur = cur, prev
    return prev[:, -1]


def _anchored_starts(recovered: Sequence, doubled: list, n: int) -> list[int]:
    """Rotation start offsets to try, anchored on ``recovered[0]``."""
    anchors = (
        [i for i in range(n) if doubled[i] == recovered[0]] if recovered else [0]
    )
    if not anchors:
        anchors = list(range(n))
    return anchors


def cyclic_levenshtein(recovered: Sequence, truth: Sequence) -> int:
    """Edit distance between a recovered ring and the true ring, minimised
    over rotations (and reflection is *not* allowed — the ring has a
    direction, packets fill it one way).

    The recovered sequence starts at an arbitrary node (Algorithm 1 begins
    its traversal at a random node), so we rotate the truth to the best
    alignment before scoring.  All candidate rotations run through one
    batched DP.
    """
    if not truth:
        return len(recovered)
    doubled = list(truth) + list(truth)
    n = len(truth)
    anchors = _anchored_starts(recovered, doubled, n)
    if not recovered:
        return n
    return int(_rotation_distances(recovered, doubled, anchors, n).min())


def best_rotation(recovered: Sequence, truth: Sequence) -> list:
    """Rotate ``truth`` to the alignment with minimum edit distance.

    Useful before positional metrics (like mismatch runs) since the
    recovered ring starts at an arbitrary node.  Ties keep the earliest
    anchor, matching the scalar reference's first-strictly-better scan.
    """
    if not truth:
        return []
    doubled = list(truth) + list(truth)
    n = len(truth)
    starts = _anchored_starts(recovered, doubled, n)
    distances = _rotation_distances(recovered, doubled, starts, n)
    best_start = starts[int(np.argmin(distances))]
    return doubled[best_start : best_start + n]


def error_rate(recovered: Sequence, truth: Sequence, cyclic: bool = False) -> float:
    """Edit distance normalised by the ground-truth length (Table I's
    "Error Rate" row and the covert channel's bit error rate)."""
    if not truth:
        raise ValueError("truth sequence is empty")
    distance = cyclic_levenshtein(recovered, truth) if cyclic else levenshtein(recovered, truth)
    return distance / len(truth)


def _full_dp(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The complete (n+1, m+1) DP table, rows filled vectorised."""
    n, m = len(ca), len(cb)
    dp = np.empty((n + 1, m + 1), dtype=np.int64)
    ar = np.arange(m + 1, dtype=np.int64)
    dp[0] = ar
    for i in range(1, n + 1):
        cost = (cb != ca[i - 1]).astype(np.int64)
        row = dp[i]
        row[0] = i
        np.minimum(dp[i - 1, 1:] + 1, dp[i - 1, :-1] + cost, out=row[1:])
        np.subtract(row, ar, out=row)
        np.minimum.accumulate(row, out=row)
        np.add(row, ar, out=row)
    return dp


def edit_breakdown(sent: Sequence, received: Sequence) -> tuple[int, int, int]:
    """``(substitutions, insertions, deletions)`` turning ``sent`` into
    ``received``, from one minimum edit script.

    The three counts always sum to ``levenshtein(sent, received)`` — the
    traceback just attributes the minimum distance to error classes, which
    is how the covert channel separates bit flips (substitutions) from
    sync slips (a missed symbol is a deletion, a spurious probe hit is an
    insertion).  Ties prefer the diagonal, then deletion.  The DP table
    fills vectorised; the O(n + m) traceback stays scalar and reads the
    same table values as the frozen reference, so the attribution is
    bit-identical.
    """
    ca, cb = _encode(sent, received)
    dp = _full_dp(ca, cb)
    substitutions = insertions = deletions = 0
    i, j = len(ca), len(cb)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if ca[i - 1] == cb[j - 1] else 1
            if dp[i, j] == dp[i - 1, j - 1] + cost:
                substitutions += cost
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            deletions += 1  # sent symbol never showed up
            i -= 1
        else:
            insertions += 1  # received symbol nobody sent
            j -= 1
    return substitutions, insertions, deletions


def longest_mismatch_run(recovered: Sequence, truth: Sequence) -> int:
    """Length of the longest run of positions where aligned sequences differ
    (Table I's "Longest Mismatch").

    Sequences are aligned with the standard edit-distance traceback; runs
    are counted over the alignment, with insertions/deletions counting as
    mismatching positions.
    """
    ca, cb = _encode(recovered, truth)
    dp = _full_dp(ca, cb)
    flags: list[bool] = []  # True = mismatch at this alignment column
    i, j = len(ca), len(cb)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = 0 if ca[i - 1] == cb[j - 1] else 1
            if dp[i, j] == dp[i - 1, j - 1] + cost:
                flags.append(cost == 1)
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            flags.append(True)
            i -= 1
        else:
            flags.append(True)
            j -= 1
    longest = current = 0
    for mismatched in flags:
        current = current + 1 if mismatched else 0
        longest = max(longest, current)
    return longest
