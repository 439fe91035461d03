"""Banded affine Smith-Waterman with full traceback (CIGAR production).

The score-only kernel in :mod:`repro.extend.smith_waterman` models the
hardware cost; alignment *output* needs the operation string.  This
variant keeps banded pointer matrices for the three affine states and
walks them back from the best cell, emitting a BWA-style CIGAR with
soft-clips for the unaligned read ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extend.smith_waterman import NEG_INF, ScoringScheme, SwWorkspace

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


def banded_sw_traceback(query: np.ndarray, target: np.ndarray,
                        scheme: "ScoringScheme | None" = None,
                        band: int = 41,
                        workspace: "SwWorkspace | None" = None
                        ) -> TracedAlignment:
    """Local alignment with CIGAR, banded like the score-only kernel."""
    scheme = scheme or ScoringScheme()
    if band < 1:
        raise ValueError("band must be at least 1")
    q = np.asarray(query, dtype=np.int16)
    t = np.asarray(target, dtype=np.int16)
    m, n = q.size, t.size
    if m == 0 or n == 0:
        # Same unaligned shape as the best == 0 path below: a full
        # soft-clip, normalized through _merge (so m == 0 yields ()).
        return TracedAlignment(0, 0, 0, 0, 0, _merge([("S", m)]))
    half = band // 2
    width = 2 * half + 2

    # Two rotating H/E row pairs from the caller's workspace; refilling
    # them beats the fresh (n + 1) allocations the per-row loop used to
    # make (the same reuse the score-only kernel follows).
    workspace = workspace or SwWorkspace()
    h_prev, e_prev, h_cur, e_cur = workspace.rows(n)
    h_prev[:] = 0
    e_prev[:] = NEG_INF
    # Pointer matrices, band-relative: column j maps to j - (i - half).
    h_ptr = np.zeros((m + 1, width), dtype=np.int8)
    e_open = np.zeros((m + 1, width), dtype=bool)
    f_open = np.zeros((m + 1, width), dtype=bool)

    def rel(i, j):
        return j - (i - half)

    best = 0
    best_i = best_j = 0
    for i in range(1, m + 1):
        lo = max(1, i - half)
        hi = min(n, i + half)
        if lo > hi:
            break
        # Within the band, rel(i, j) sweeps lo - (i - half) .. hi -
        # (i - half), always inside [0, width).  E (vertical) and the
        # diagonal term depend only on the previous row, so both are
        # one vector op; F (horizontal) chains through the current row
        # and stays in the scalar loop, on plain Python ints -- the
        # recurrences and tie-breaks are identical to the per-cell
        # form, only the arithmetic moved out of numpy scalar indexing.
        r_lo = rel(i, lo)
        span = hi - lo + 1
        open_e = h_prev[lo:hi + 1] + scheme.gap_open
        extend_e = e_prev[lo:hi + 1] + scheme.gap_extend
        e_row = np.maximum(open_e, extend_e)
        e_open[i, r_lo:r_lo + span] = open_e >= extend_e
        diag_row = h_prev[lo - 1:hi] + np.where(
            t[lo - 1:hi] == q[i - 1], scheme.match, scheme.mismatch)
        e_vals = e_row.tolist()
        diag_vals = diag_row.tolist()
        h_row = [0] * span
        ptr_row = [_STOP] * span
        f_row = [False] * span
        f = NEG_INF
        # h_cur[lo - 1] sits outside the band on this row, hence 0.
        h_left = 0
        for c in range(span):
            # F: gap in the target (consume query), horizontal state.
            open_f = h_left + scheme.gap_open
            extend_f = f + scheme.gap_extend
            if open_f >= extend_f:
                f = open_f
                f_row[c] = True
            else:
                f = extend_f
            e = e_vals[c]
            diag = diag_vals[c]
            h = max(0, diag, e, f)
            h_row[c] = h
            h_left = h
            if h == 0:
                pass
            elif h == diag:
                ptr_row[c] = _DIAG
            elif h == e:
                ptr_row[c] = _FROM_E
            else:
                ptr_row[c] = _FROM_F
            if h > best:
                best, best_i, best_j = h, i, lo + c
        f_open[i, r_lo:r_lo + span] = f_row
        h_ptr[i, r_lo:r_lo + span] = ptr_row
        h_cur[lo:hi + 1] = h_row
        e_cur[lo:hi + 1] = e_row
        # The next row reads at most one cell either side of this row's
        # filled span (lo' - 1 >= lo - 1 for the diagonal term, hi' <=
        # hi + 1 for E); pin those to the out-of-band boundary values so
        # the reused buffers never leak a stale cell into the band.
        h_cur[lo - 1] = 0
        e_cur[lo - 1] = NEG_INF
        if hi < n:
            h_cur[hi + 1] = 0
            e_cur[hi + 1] = NEG_INF
        h_prev, h_cur = h_cur, h_prev
        e_prev, e_cur = e_cur, e_prev

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
