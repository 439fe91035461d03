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
Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extend.smith_waterman import (
    DEFAULT_SCHEME, NEG_INF, ScoringScheme)

# Traceback codes for the H matrix.
_STOP, _DIAG, _FROM_E, _FROM_F = 0, 1, 2, 3


@dataclass(frozen=True)
class TracedAlignment:
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

    def cigar_string(self) -> str:
        return "".join(f"{length}{op}" for op, length in self.cigar)


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
               scheme: "ScoringScheme | None" = None, band: int = 41,
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


# SeedEx SW lane equivalent, run once per extension on the scalar path.
# repro: hot
def banded_sw_traceback(query: np.ndarray, target: np.ndarray,
                        scheme: "ScoringScheme | None" = None,
                        band: int = 41) -> TracedAlignment:
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
