"""An independent score-only banded Smith-Waterman: the test oracle.

Both Smith-Waterman kernels of the package trace back, and the batched
one is checked against the scalar one.  This is the third opinion both
are held to on score and end coordinates (``tests/test_traceback_sam.py``):
it computes the recurrence another way -- numpy over whole rows, no
pointers, no band-relative layout -- so the two kernels agreeing with
each other is not the only evidence they are right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extend.smith_waterman import DEFAULT_SCHEME, NEG_INF, ScoringScheme


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one banded alignment."""

    score: int
    query_end: int
    target_end: int


def banded_smith_waterman(query: np.ndarray, target: np.ndarray,
                          scheme: "ScoringScheme | None" = None,
                          band: int = 41) -> AlignmentResult:
    """Local alignment of ``query`` vs ``target`` within a diagonal band.

    Cells with ``|i - j| > band // 2`` are never computed.  Returns the
    best local score and the end coordinates of its first row-major
    occurrence.
    """
    scheme = scheme or DEFAULT_SCHEME
    if band < 1:
        raise ValueError("band must be at least 1")
    q = np.asarray(query, dtype=np.int16)
    t = np.asarray(target, dtype=np.int16)
    m, n = q.size, t.size
    if m == 0 or n == 0:
        return AlignmentResult(0, 0, 0)
    half = band // 2

    # Rows over the query; H/E over target positions, restricted to the
    # band around the main diagonal.
    h_prev = np.zeros(n + 1, dtype=np.int64)
    e_prev = np.full(n + 1, NEG_INF, dtype=np.int64)
    h_cur = np.empty_like(h_prev)
    e_cur = np.empty_like(e_prev)
    best = 0
    best_q = best_t = 0
    # The F term's gap slope and a scratch row sized to the widest band
    # row.
    s = max(scheme.gap_open, scheme.gap_extend)
    width_cap = min(n, 2 * half + 1)
    steps_full = s * np.arange(width_cap, dtype=np.int64)
    scratch = np.empty(width_cap, dtype=np.int64)
    for i in range(1, m + 1):
        lo = max(1, i - half)
        hi = min(n, i + half)
        if lo > hi:
            break
        h_cur[:] = 0
        e_cur[:] = NEG_INF
        window = slice(lo, hi + 1)
        match_scores = np.where(t[lo - 1:hi] == q[i - 1],
                                scheme.match, scheme.mismatch)
        diag = h_prev[lo - 1:hi] + match_scores
        e_cur[window] = np.maximum(h_prev[window] + scheme.gap_open,
                                   e_prev[window] + scheme.gap_extend)
        # F (gaps in the target) has a row-local dependency
        # F[j] = max(H[j-1] + open, F[j-1] + extend); with
        # s = max(open, extend) and H0 = H without the F term it unrolls
        # to the closed form F[j] = open + s*w + cummax(H0[j0] - s*w0)
        # over window offsets w (a prefix-max, one vector op).  Exact:
        # within a row H[j-1] = max(H0[j-1], F[j-1]) and folding the
        # F[j-1] branch through max(open, extend) never wins strictly.
        h0 = np.maximum(np.maximum(diag, e_cur[window]), 0)
        steps = steps_full[:hi - lo + 1]
        h0_left = scratch[:hi - lo + 1]
        h0_left[0] = 0
        h0_left[1:] = h0[:-1]
        f_row = (scheme.gap_open + steps
                 + np.maximum.accumulate(h0_left - steps))
        h_row = np.maximum(h0, f_row)
        h_cur[window] = h_row
        row_best = int(h_row.max())
        if row_best > best:
            best = row_best
            best_q, best_t = i, lo + int(h_row.argmax())
        h_prev, h_cur = h_cur, h_prev
        e_prev, e_cur = e_cur, e_prev
    return AlignmentResult(int(best), best_q, best_t)
