"""Banded affine Smith-Waterman with full traceback (CIGAR production).

The scalar one of the two Smith-Waterman kernels: every extension whose
read does not occur exactly inside the band (:func:`exact_lane` answers
those without a DP) runs here or on its batched twin
(:mod:`repro.kernels.traceback`), through
:meth:`repro.extend.pipeline.ReadAligner.extend_batch` or mate rescue.
It keeps band-relative pointer rows for the three affine states (one
``bytearray`` per DP row each) and walks them back from the best cell,
emitting a BWA-style CIGAR with soft-clips for the unaligned read ends.  It is the oracle the batched kernel is checked
against, so the row loop is the literal per-cell recurrence, on plain
Python ints.  :func:`diagonal_lanes` is the walk's shortcut: given a
batched score-only sweep's score and end cell, it returns the same
alignment for every lane whose best path is ungapped.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.extend.smith_waterman import (
    BAND, DEFAULT_SCHEME, NEG_INF, ScoringScheme)

# Traceback codes for the H matrix.
_STOP, _DIAG, _FROM_E, _FROM_F = 0, 1, 2, 3
#: A diagonal run's op, indexed by whether its bases match.
_RUN_OPS = np.array(["X", "M"], dtype=object)


class TracedAlignment(NamedTuple):
    """A local alignment with its operation string.

    ``cigar`` is a list of ``(op, length)`` with ops in ``M=X I D S``
    (``M`` match, ``X`` mismatch, ``I`` insertion to the reference /
    extra query base, ``D`` deletion, ``S`` soft clip); query/target
    coordinates are 0-based half-open.
    """

    score: int
    query_start: int
    query_end: int
    target_start: int
    target_end: int
    cigar: "tuple[tuple[str, int], ...]"

    @property
    def is_aligned(self) -> bool:
        return self.score > 0


class LaneScore(NamedTuple):
    """A lane's score and best cell, without the walk that would give
    its start and CIGAR: what a score-only sweep
    (:func:`repro.kernels.traceback.batched_banded_sw`) returns.  The
    fields equal the lane's :class:`TracedAlignment` fields of the same
    names (all 0 for an unaligned lane)."""

    score: int
    query_end: int
    target_end: int

    @property
    def is_aligned(self) -> bool:
        return self.score > 0


def _merge(ops: "list[tuple[str, int]]") -> "tuple[tuple[str, int], ...]":
    merged = []
    for op, length in ops:
        if length == 0:
            continue
        if merged and merged[-1][0] == op:
            merged[-1] = (op, merged[-1][1] + length)
        else:
            merged.append((op, length))
    return tuple(merged)


def exact_lane(query: bytes, target: bytes,
               scheme: "ScoringScheme | None" = None, band: int = BAND,
               start: int = 0, end: "int | None" = None) \
        -> "TracedAlignment | None":
    """:func:`banded_sw_traceback`'s answer for a lane whose query occurs
    exactly inside the band, found by ``bytes.find``; ``None`` otherwise.

    The lane's target is ``target[start:end]`` (so a caller searches a
    long text in place); the query is searched for in its first
    ``min(n, m + band // 2)`` bases.  Under any scheme
    :class:`ScoringScheme` accepts (match > 0, every penalty < 0),
    ``H[i][j] <= i * match``, so only row ``m`` can reach ``m * match``,
    and a path that does is ``m`` diagonal matches: an exact copy at a
    start ``s <= band // 2``, every cell of which is in band.  On that
    diagonal E and F are strictly below the diagonal term, so the
    pointers are all diagonal; row ``m``'s first best cell in row-major
    order is the leftmost copy's end, and the walk back from it emits
    ``m`` ``M``s and no soft-clip (docs/algorithms.md, "Exact lanes").
    """
    m = len(query)
    end = len(target) if end is None else end
    s = target.find(query, start, min(end, start + m + band // 2))
    if s < 0:
        return None
    s -= start
    return TracedAlignment(m * (scheme or DEFAULT_SCHEME).match, 0, m, s,
                           s + m, _merge([("M", m)]))


def diagonal_lanes(queries: np.ndarray, targets: "list[np.ndarray]",
                   scored: "list[LaneScore]",
                   scheme: "ScoringScheme | None" = None) \
        -> "list[TracedAlignment | None]":
    """:func:`banded_sw_traceback`'s answer for each scored lane whose
    best path is ungapped, from its :class:`LaneScore` alone; ``None``
    for a lane whose best path may hold a gap.

    Lane ``b`` aligns row ``b`` of the ``(B, m)`` block ``queries``
    against ``targets[b]`` and scored ``scored[b] = (best, i, j)``.  Let
    ``S_t`` be the score of the ``t`` diagonal cells ending at ``(i,
    j)``, ``t <= min(i, j)``.  Every ``S_t <= best``, since ``S_t`` is
    a path into the best cell.  If some ``S_t == best``, take the first
    such ``t*``: the cell ``t < t*`` steps back then holds ``H = best -
    S_t > 0``, which its diagonal term attains (and DIAG outranks E and
    F), and the cell ``t*`` back holds ``H = 0`` (STOP), so the walk
    back from ``(i, j)`` is ``t*`` diagonal ``M``/``X`` ops from ``(i -
    t*, j - t*)`` (docs/algorithms.md, "Lanes traced from their
    score").  An unaligned lane (``best == 0``) gets the kernel's full
    soft clip.

    Whole-block numpy: one gather each of the lanes' diagonal query and
    target bases, one compare, one ``cumsum`` and one first-hit
    ``argmax``; then one run-boundary pass, and Python only to build
    each lane's CIGAR from its runs.
    """
    scheme = scheme or DEFAULT_SCHEME
    B, m = queries.shape
    unaligned = TracedAlignment(0, 0, 0, 0, 0, _merge([("S", m)]))
    if not B or not m:
        return [unaligned] * B
    best, i, j = np.array(scored, dtype=np.int64).reshape(B, 3).T
    rows = np.arange(B)
    # Column t - 1 of lane b's row holds the bases its walk meets t
    # cells back, query[i - t] and target[j - t]: one row gather each
    # from the queries and from the targets, concatenated after m
    # padding bases and reversed (cells past min(i, j) read a
    # neighbour's bases or the padding, and are masked).
    pad = np.zeros(m, dtype=queries.dtype)
    rev_queries = np.concatenate([pad, queries.ravel()])[::-1]
    rev_targets = np.concatenate([pad, *targets])[::-1]
    starts = np.cumsum([0] + [t.size for t in targets[:-1]])
    same = (sliding_window_view(rev_queries, m)[(B - rows) * m - i]
            == sliding_window_view(rev_targets, m)[
                rev_targets.size - m - starts - j])
    back = np.arange(1, m + 1)
    hit = ((np.cumsum(np.where(same, scheme.match, scheme.mismatch), axis=1)
            == best[:, None]) & (back <= np.minimum(i, j)[:, None]))
    first = hit.argmax(axis=1)
    length = np.where(hit[rows, first], first + 1, 0)
    # The M / X runs of each walked lane, from its end cell back: one
    # opens at t = 0 and wherever ``same`` changes before t*, and each
    # ends where the next one opens, or at t*.
    opens = np.empty((B, m), dtype=bool)
    opens[:, 0] = length > 0
    opens[:, 1:] = ((same[:, 1:] != same[:, :-1])
                    & (back[:-1] < length[:, None]))
    lane, at = np.nonzero(opens)
    stop = np.empty_like(at)
    stop[:-1] = at[1:]
    last = np.ones(at.size, dtype=bool)
    last[:-1] = lane[1:] != lane[:-1]
    stop[last] = length[lane[last]]
    runs = list(zip(_RUN_OPS[same[lane, at].view(np.uint8)].tolist(),
                    (stop - at).tolist()))
    bounds = np.cumsum(np.bincount(lane, minlength=B)).tolist()
    out: "list[TracedAlignment | None]" = []
    lo = 0
    for score, t, end, target_end, hi in zip(
            best.tolist(), length.tolist(), i.tolist(), j.tolist(), bounds):
        if score <= 0:
            out.append(unaligned)
        elif not t:
            out.append(None)
        else:
            cigar = runs[lo:hi]
            cigar.reverse()
            if end > t:
                cigar.insert(0, ("S", end - t))
            if end < m:
                cigar.append(("S", m - end))
            out.append(TracedAlignment(score, end - t, end, target_end - t,
                                       target_end, tuple(cigar)))
        lo = hi
    return out


# SeedEx SW lane equivalent, run once per extension on the scalar path.
# repro: hot
def banded_sw_traceback(query: np.ndarray, target: np.ndarray,
                        scheme: "ScoringScheme | None" = None,
                        band: int = BAND) -> TracedAlignment:
    """Local alignment of ``query`` vs ``target`` with CIGAR, within a
    diagonal band.

    Cells with ``|i - j| > band // 2`` are never computed, matching the
    fixed-width systolic band of a hardware unit (band 41 in SeedEx).
    The best cell is the first in row-major order that attains the
    maximum score.
    """
    scheme = scheme or DEFAULT_SCHEME
    if band < 1:
        raise ValueError("band must be at least 1")
    q = np.asarray(query, dtype=np.int16).tolist()
    t = np.asarray(target, dtype=np.int16).tolist()
    m, n = len(q), len(t)
    if m == 0 or n == 0:
        # Same unaligned shape as the best == 0 path below: a full
        # soft-clip, normalized through _merge (so m == 0 yields ()).
        return TracedAlignment(0, 0, 0, 0, 0, _merge([("S", m)]))
    match, mismatch = scheme.match, scheme.mismatch
    gap_open, gap_extend = scheme.gap_open, scheme.gap_extend
    half = band // 2
    width = 2 * half + 2

    # Band-relative rows: row i's column r is j = i - half + r, so row
    # i - 1 holds the cell above column r at r + 1 and the diagonal
    # neighbour at r.  Cells a row leaves unfilled keep the out-of-band
    # values (H = 0, E = -inf) the next row may read at its edges.
    h_prev = [0] * width
    e_prev = [NEG_INF] * width
    h_ptr = [bytearray(width)]
    e_open = [bytearray(width)]
    f_open = [bytearray(width)]
    best = 0
    best_i = best_j = 0
    for i in range(1, m + 1):
        lo = max(1, i - half)
        hi = min(n, i + half)
        if lo > hi:
            break
        base = i - half
        t_off = base - 1
        q_i = q[i - 1]
        h_cur = [0] * width
        e_cur = [NEG_INF] * width
        ptr_row = bytearray(width)
        e_open_row = bytearray(width)
        f_open_row = bytearray(width)
        f = NEG_INF
        h = 0  # H left of the band on this row
        for r in range(lo - base, hi - base + 1):
            up = r + 1
            # E: gap in the reference (consume query), from the row above.
            e = h_prev[up] + gap_open
            extend = e_prev[up] + gap_extend
            if e >= extend:
                e_open_row[r] = 1
            else:
                e = extend
            # F: gap in the query (consume target), from the left.
            extend = f + gap_extend
            f = h + gap_open
            if f >= extend:
                f_open_row[r] = 1
            else:
                f = extend
            diag = h_prev[r] + (match if t[t_off + r] == q_i else mismatch)
            # H = max(0, diag, E, F); the pointer is the first of stop,
            # diagonal, E, F that attains it.
            h, ptr = diag, _DIAG
            if e > h:
                h, ptr = e, _FROM_E
            if f > h:
                h, ptr = f, _FROM_F
            if h > 0:
                ptr_row[r] = ptr
                if h > best:
                    best, best_i, best_j = h, i, base + r
            else:
                h = 0
            h_cur[r] = h
            e_cur[r] = e
        h_ptr.append(ptr_row)
        e_open.append(e_open_row)
        f_open.append(f_open_row)
        h_prev, e_prev = h_cur, e_cur

    if best == 0:
        return TracedAlignment(0, 0, 0, 0, 0, _merge([("S", m)]))
    return walk_back(q, t, h_ptr, e_open, f_open, best, best_i, best_j,
                     half, m)


def walk_back(q: np.ndarray, t: np.ndarray, h_ptr: np.ndarray,
              e_open: np.ndarray, f_open: np.ndarray, best: int,
              best_i: int, best_j: int, half: int, m: int) \
        -> TracedAlignment:
    """Walk band-relative pointer planes back from the best cell.

    Shared by the scalar kernel above and the batched row-scan kernel
    (:func:`repro.kernels.traceback.batched_sw_traceback`), which fills
    per-lane planes of the same layout -- sharing the walk is what makes
    their CIGARs identical by construction.
    """
    ops: "list[tuple[str, int]]" = []
    i, j = best_i, best_j
    state = "H"
    while i > 0 and j > 0:
        r = j - (i - half)
        if state == "H":
            ptr = h_ptr[i][r]
            if ptr == _STOP:
                break
            if ptr == _DIAG:
                ops.append(("M" if t[j - 1] == q[i - 1] else "X", 1))
                i -= 1
                j -= 1
            elif ptr == _FROM_E:
                state = "E"
            else:
                state = "F"
        elif state == "E":
            # E came from the previous row, same column: it consumed a
            # query base (an insertion relative to the reference).
            ops.append(("I", 1))
            if e_open[i][r]:
                state = "H"
            i -= 1
        else:  # F: same row, previous column: consumed a target base.
            ops.append(("D", 1))
            if f_open[i][r]:
                state = "H"
            j -= 1

    ops.reverse()
    query_start, target_start = i, j
    cigar = ([("S", query_start)] + ops + [("S", m - best_i)])
    return TracedAlignment(score=best, query_start=query_start,
                           query_end=best_i, target_start=target_start,
                           target_end=best_j, cigar=_merge(cigar))
