"""Banded affine-gap Smith-Waterman and banded edit distance.

These are the functional equivalents of a SeedEx lane's compute units
(3 banded Smith-Waterman units with 41 PEs each plus one edit-distance
unit, §VI).  The Smith-Waterman recurrence is vectorized per row within
the band; scoring defaults follow BWA-MEM (match +1, mismatch -4,
gap open -6, gap extend -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEG_INF = -10 ** 9


@dataclass(frozen=True)
class ScoringScheme:
    """Affine-gap scoring (BWA-MEM defaults)."""

    match: int = 1
    mismatch: int = -4
    gap_open: int = -6
    gap_extend: int = -1

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch >= 0 or self.gap_open >= 0 or self.gap_extend >= 0:
            raise ValueError("penalties must be negative")


#: The BWA-MEM default scheme, constructed once: callers on the per-read
#: hot path (ReadAligner, the kernels below) reuse this instead of
#: validating a fresh dataclass per call.
DEFAULT_SCHEME = ScoringScheme()


class SwWorkspace:
    """Reusable DP row buffers for :func:`banded_smith_waterman`.

    The kernel needs four length-``n + 1`` rows per call; allocating them
    per row (the previous behavior) dominated short-read extension cost.
    A workspace owned by the caller (one per :class:`~repro.extend.
    pipeline.ReadAligner`) amortizes the allocation across every
    extension of every read; rows are re-filled, never re-allocated,
    unless a longer target arrives.
    """

    __slots__ = ("_rows", "_cap", "_grid", "_planes")

    # repro: hot -- banded_smith_waterman makes one when handed none.
    def __init__(self) -> None:
        self._rows: "tuple[np.ndarray, ...] | None" = None
        self._cap = 0
        self._grid: "np.ndarray | None" = None
        self._planes: "np.ndarray | None" = None

    def rows(self, n: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Four int64 rows of length ``n + 1`` (contents unspecified --
        the kernel initializes them)."""
        if self._rows is None or self._cap < n + 1:
            self._cap = max(n + 1, 256)
            self._rows = tuple(np.empty(self._cap, dtype=np.int64)
                               for _ in range(4))
        a, b, c, d = self._rows
        return a[:n + 1], b[:n + 1], c[:n + 1], d[:n + 1]

    def grid(self, planes: int, rows: int, cols: int,
             dtype=np.int64) -> np.ndarray:
        """A ``(planes, rows, cols)`` block of ``dtype`` for a batched
        kernel's rows and score planes (contents unspecified); reused
        across calls like :meth:`rows`, and allocated afresh when a
        call needs more cells or another dtype than the last one left
        -- one block is resident, never one per dtype."""
        need = planes * rows * cols
        if self._grid is None or self._grid.dtype != dtype \
                or self._grid.size < need:
            self._grid = np.empty(max(need, 4096), dtype=dtype)
        return self._grid[:need].reshape(planes, rows, cols)

    def ptr_planes(self, planes: int, rows: int, cols: int) \
            -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Traceback pointer planes for the batched traceback kernel:
        one int8 ``(planes, rows, cols)`` block (H pointers) plus two
        bool blocks of the same shape (E/F gap-open flags), carved from
        one persistent byte buffer (contents unspecified) and grown on
        demand like :meth:`rows` / :meth:`grid`."""
        need = 3 * planes * rows * cols
        if self._planes is None or self._planes.size < need:
            self._planes = np.empty(max(need, 4096), dtype=np.int8)
        block = self._planes[:need].reshape(3, planes, rows, cols)
        return block[0], block[1].view(np.bool_), block[2].view(np.bool_)


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one banded alignment."""

    score: int
    query_end: int
    target_end: int
    cells: int

    @property
    def is_aligned(self) -> bool:
        return self.score > 0


# SeedEx SW lane equivalent; row buffers come from the caller's
# workspace so the per-row cost is a fill, not an allocation.
# repro: hot
def banded_smith_waterman(query: np.ndarray, target: np.ndarray,
                          scheme: "ScoringScheme | None" = None,
                          band: int = 41,
                          workspace: "SwWorkspace | None" = None
                          ) -> AlignmentResult:
    """Local alignment of ``query`` vs ``target`` within a diagonal band.

    Cells with ``|i - j| > band // 2`` are never computed, matching the
    fixed-width systolic band of a hardware unit (band 41 in SeedEx).
    Returns the best local score and its end coordinates, plus the number
    of cells computed (the hardware cost driver).
    """
    scheme = scheme or DEFAULT_SCHEME
    if band < 1:
        raise ValueError("band must be at least 1")
    q = np.asarray(query, dtype=np.int16)
    t = np.asarray(target, dtype=np.int16)
    m, n = q.size, t.size
    if m == 0 or n == 0:
        return AlignmentResult(0, 0, 0, 0)
    half = band // 2

    # Rows over the query; H/E/F over target positions, restricted to the
    # band around the main diagonal.
    workspace = workspace or SwWorkspace()
    h_prev, e_prev, h_cur, e_cur = workspace.rows(n)
    h_prev[:] = 0
    e_prev[:] = NEG_INF
    best = 0
    best_q = best_t = 0
    cells = 0
    # F-scan closed form support (see below), hoisted out of the row
    # loop: the gap slope and a scratch row sized to the widest band row.
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
        cells += hi - lo + 1
        if row_best > best:
            best = row_best
            best_q, best_t = i, lo + int(h_row.argmax())
        h_prev, h_cur = h_cur, h_prev
        e_prev, e_cur = e_cur, e_prev
    return AlignmentResult(int(best), best_q, best_t, cells)


def banded_edit_distance(query: np.ndarray, target: np.ndarray,
                         band: int = 41) -> "int | None":
    """Banded Levenshtein distance, or ``None`` when the true distance
    exceeds what the band can certify (the hardware edit-distance unit's
    quick-accept path for near-perfect candidates)."""
    if band < 1:
        raise ValueError("band must be at least 1")
    q = np.asarray(query)
    t = np.asarray(target)
    m, n = q.size, t.size
    half = band // 2
    if abs(m - n) > half:
        return None
    inf = 10 ** 9
    prev = {j: j for j in range(0, min(n, half) + 1)}
    for i in range(1, m + 1):
        lo = max(0, i - half)
        hi = min(n, i + half)
        cur = {}
        for j in range(lo, hi + 1):
            if j == 0:
                cur[j] = i
                continue
            sub = prev.get(j - 1, inf) + (
                0 if q[i - 1] == t[j - 1] else 1)
            dele = prev.get(j, inf) + 1
            ins = cur.get(j - 1, inf) + 1
            cur[j] = min(sub, dele, ins)
        prev = cur
    dist = prev.get(n)
    if dist is None or dist > half:
        return None
    return int(dist)
