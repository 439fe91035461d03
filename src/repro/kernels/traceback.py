"""Row-scan banded Smith-Waterman *with traceback* over a batch of lanes.

A lane is one (query, target window) pair.  :func:`batched_sw_traceback`
sweeps ``B`` lanes at once -- each with its own query row of a ``(B, m)``
block, or all sharing one 1-D query (the broadcast case of the same
code) -- and returns exactly what ``B`` calls to
:func:`repro.extend.traceback.banded_sw_traceback` would: same scores,
same coordinates, same CIGAR tuples.

The sweep runs in the scalar kernel's own geometry, row by row, on
band-relative rows: row ``i`` holds columns ``j = i - half + r``,
``r = 0 .. 2 half``, lanes innermost, so every operand of a row is one
contiguous ``(2 half + 1, B)`` block.  ``E`` and the diagonal term come
from the previous row as the scalar kernel computes them, ``H0 =
max(diag, E, 0)``, and the scalar kernel's per-cell F loop is one
prefix-max scan::

    F[c] = ext c + max_{c' <= c} G[c'],   G[0] = open,
                                          G[c] = H0[c-1] + open - ext c

``F[c] = max(H[c-1] + open, F[c-1] + ext)`` with ``H[c-1] = max(H0[c-1],
F[c-1])`` unrolls to that form whenever ``gap_open <= gap_extend``: the
``F[c-1] + open`` the true ``H[c-1]`` would add never beats ``F[c-1] +
ext``, and ``G[0]`` is the out-of-band ``H = 0`` left of the row (any
other scheme goes to the scalar kernel).  ``H = max(H0, F)``; pointers
(stop / diagonal / E / F, in that priority), ``e_open`` and ``f_open``
are then elementwise on the true ``H`` / ``E`` / ``F``, written into
band-relative pointer planes of the layout the scalar kernel fills, and
each lane's alignment is recovered by the *shared* walk-back
(:func:`repro.extend.traceback.walk_back`): the CIGARs are identical to
the scalar kernel's by construction, not merely by test.

A row is ~25 numpy calls.  There is no boundary bookkeeping: cells left
of the matrix (``j <= 0``) and beyond a lane's target are computed
against a sentinel base that matches nothing, so every term there is
negative and ``H`` is the 0 the scalar kernel pins, and no cell feeds
one with a smaller ``j``; the column right of the band is pinned once
per sweep.  Row ``i - 1`` of the band-relative ``H`` plane *is* the
previous row, row ``i`` holds the substitution scores until ``H``
overwrites them, and the best cell is searched there after the sweep.

Planes and rows are int16 when every intermediate fits (``m match`` and
``width |penalty|`` below 2^14, -2^14 standing in for ``NEG_INF``) and
int32 otherwise -- computed from ``m`` and the scheme, one code path.
The row loop costs nearly the same for 3 lanes as for 128 (101 bp reads,
band 41, 2-vCPU Xeon, sweep + walk-back per lane: 0.71 ms at B = 3,
0.33 ms at B = 8, 0.113 ms at B = 64, 0.097 ms at B = 128; scalar
kernel 1.2 ms), so callers pack lanes from *different reads* of a
batch into one call
(:meth:`repro.extend.pipeline.ReadAligner.extend_batch`), split evenly
here into sweeps of at most :data:`MAX_WAVEFRONT_LANES`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import telemetry
from repro.telemetry.metrics import FRACTION_EDGES
from repro.extend.smith_waterman import (
    DEFAULT_SCHEME, ScoringScheme, SwWorkspace)
from repro.extend.traceback import (
    _STOP, TracedAlignment, banded_sw_traceback, walk_back)

#: Fewest lanes a sweep is worth.  Measured at m = 101, band = 41,
#: 142 bp windows (2-vCPU Xeon, medians of 300 interleaved calls, sweep
#: vs the scalar int-list row loop, two passes): 1.81-1.95 vs 1.15-1.24
#: ms at B = 1, 2.03-2.11 vs 2.33-2.38 ms at B = 2, 2.12-2.14 vs
#: 3.46-3.56 ms at B = 3 -- the scalar loop beats a one-lane sweep and
#: the sweep wins from two lanes on.  Nothing reads this (a one-lane call
#: still sweeps); it stays a name only because
#: ``benchmarks/pipeline/layers.py`` imports it, and goes with that
#: import (ROADMAP 1(a)).
MIN_WAVEFRONT_LANES = 1
#: Most lanes one sweep carries, sized by memory: a lane owns a
#: band-relative H plane (int16), three pointer planes (int8) and 13
#: band-wide rows -- ((m + 1) (2 + 3) + 26) width bytes, 22.5 kB at
#: m = 101, band = 41 -- so 128 lanes keep a sweep's planes at 2.9 MB.
MAX_WAVEFRONT_LANES = 128

#: Target padding: a base code no query holds, so cells outside a
#: lane's target score as mismatches.
_SENTINEL = 127


def _neg_inf(dtype) -> int:
    """``NEG_INF`` stand-in of ``dtype``: half its range, so adding one
    penalty never wraps and every real E/F (>= ``gap_open``) beats it."""
    return int(np.iinfo(dtype).min) // 2


def _plane_dtype(m: int, width: int, scheme: ScoringScheme):
    """The narrowest dtype the row scan can run in, or ``None`` when it
    cannot carry ``scheme`` (``gap_open > gap_extend`` breaks the scan;
    scores past int32 break everything)."""
    reach = max(m * scheme.match,
                width * -min(scheme.mismatch, scheme.gap_open,
                             scheme.gap_extend))
    if scheme.gap_open <= scheme.gap_extend:
        for dtype in (np.int16, np.int32):
            if reach < -_neg_inf(dtype):
                return dtype
    return None


def batched_sw_traceback(query: np.ndarray, targets: "list[np.ndarray]",
                         scheme: "ScoringScheme | None" = None,
                         band: int = 41,
                         workspace: "SwWorkspace | None" = None
                         ) -> "list[TracedAlignment]":
    """Banded local alignment with CIGAR, one lane per target.

    ``query`` is a ``(B, m)`` block holding lane ``b``'s query in row
    ``b``, or one 1-D query shared by every lane.  Equivalent to
    ``[banded_sw_traceback(query_b, t, scheme, band) for query_b, t in
    lanes]``, computed lane-parallel in evenly split sweeps of at most
    :data:`MAX_WAVEFRONT_LANES` lanes; ``workspace`` holds the sweeps'
    planes and rows.
    """
    scheme = scheme or DEFAULT_SCHEME
    if band < 1:
        raise ValueError("band must be at least 1")
    workspace = workspace or SwWorkspace()
    B = len(targets)
    q = np.asarray(query, dtype=np.int16)
    if q.ndim == 2 and q.shape[0] != B:
        raise ValueError("a query block needs one row per target")
    m = int(q.shape[-1])
    if B == 0:
        return []
    q = np.broadcast_to(q, (B, m))
    t16 = [np.asarray(t, dtype=np.int16) for t in targets]
    dtype = _plane_dtype(m, 2 * (band // 2) + 2, scheme)
    if dtype is None or m == 0 or max(t.size for t in t16) == 0:
        if dtype is None:
            # A scheme the row scan cannot carry (a no-op while
            # telemetry is off); empty inputs are not counted.
            telemetry.count("kernels.fallback_scalar.scheme")
        return [banded_sw_traceback(q[b], t, scheme, band)
                for b, t in enumerate(t16)]
    sweeps = -(-B // MAX_WAVEFRONT_LANES)
    out: "list[TracedAlignment]" = []
    for k in range(sweeps):
        lo, hi = k * B // sweeps, (k + 1) * B // sweeps
        out += _sweep(q[lo:hi], t16[lo:hi], scheme, band, workspace,
                      dtype)
    return out


#: A second name for :func:`batched_sw_traceback`, kept only because
#: ``benchmarks/pipeline/layers.py`` imports it; it goes when ROADMAP
#: 1(a) re-points that file.
batched_banded_sw = batched_sw_traceback


def _sweep(q: np.ndarray, t16: "list[np.ndarray]", scheme: ScoringScheme,
           band: int, workspace: SwWorkspace, dtype
           ) -> "list[TracedAlignment]":
    """One row sweep in ``dtype``: lane ``b`` aligns row ``b`` of the
    ``(B, m)`` int16 block ``q`` against ``t16[b]``."""
    B, m = q.shape
    n_arr = np.array([t.size for t in t16], dtype=np.int64)
    n_max = int(n_arr.max())
    # Fill fraction: real target columns over the (B, n_max) rectangle.
    telemetry.observe("kernels.wavefront_fill",
                      float(n_arr.sum()) / (B * n_max),
                      edges=FRACTION_EDGES)
    half = band // 2
    width = 2 * half + 2
    w = width - 1                # in-band columns of a row
    rows = min(m, n_max + half)  # past it the band has left every target
    neg = _neg_inf(dtype)
    open_ = scheme.gap_open
    ext = scheme.gap_extend

    # One typed block, carved into (k, B) pieces: the H plane, nine
    # band-wide rows (E of two rows, five scratch, two per-column
    # constants) and the scan's two ping-pong buffers (``w`` rows of
    # NEG above ``w`` rows of data, so a shifted read needs no edge).
    plane = (m + 1) * width
    block = workspace.grid(1, plane + 9 * width + 4 * w, B,
                           dtype=dtype)[0]
    h_all = block[:plane].reshape(m + 1, width, B)
    band_rows = block[plane:plane + 9 * width].reshape(9, width, B)
    e_prev, e_cur = band_rows[:2]
    open_e, diag, h0, f_row, h_left, g_step, f_step = band_rows[2:, :w]
    scan_rows = block[plane + 9 * width:].reshape(2, 2 * w, B)

    h_ptr, e_open, f_open = workspace.ptr_planes(m + 1, width, B)
    # The walk-back provably never reads an unwritten cell (a positive
    # H/E/F implies an in-band, already-swept source); zeroing h_ptr
    # turns any future regression into a deterministic early stop.
    h_ptr[:] = _STOP

    # Substitution scores into rows 1..rows of the H plane: cell (i, r)
    # compares query base i - 1 with target base i - 1 - half + r, a
    # sliding window over targets padded by ``half`` sentinels on the
    # left (e_open's rows serve as the compare's scratch).
    t_pad = np.full((B, max(m + 2 * half, half + n_max)), _SENTINEL,
                    dtype=np.int16)
    for b, t in enumerate(t16):
        t_pad[b, half:half + t.size] = t
    windows = sliding_window_view(np.ascontiguousarray(t_pad.T), w,
                                  axis=0)[:rows].transpose(0, 2, 1)
    same = e_open[1:rows + 1, :w]
    np.equal(windows, np.ascontiguousarray(q.T)[:rows, None, :], out=same)
    sub = h_all[1:rows + 1, :w]
    np.multiply(same, dtype(scheme.match - scheme.mismatch), out=sub)
    sub += scheme.mismatch

    # Boundaries, set once: row 0 and the column right of the band read
    # as H = 0 / E = NEG; G[0] = open survives every scan step.
    h_all[0] = 0
    h_all[1:rows + 1, w] = 0
    e_prev[:] = neg
    e_cur[w] = neg
    scan_rows[:, :w] = neg
    scan_rows[:, w] = open_
    h_left[0] = open_
    steps = np.arange(w, dtype=dtype)[:, None]
    g_step[:] = open_ - ext * steps
    f_step[:] = ext * steps
    # The scan's doubling steps s = 1, 2, 4, .. < w, alternating
    # buffers: (source, source shifted by s, destination).
    scan = [(scan_rows[k % 2, w:], scan_rows[k % 2, w - (1 << k):-(1 << k)],
             scan_rows[1 - k % 2, w:])
            for k in range((w - 1).bit_length())]
    g_tail = scan_rows[0, w + 1:]
    g_max = scan_rows[len(scan) % 2, w:]
    # Pointer scratch: comparisons as int8 0/1 so they add and multiply.
    flags = np.empty((3, w, B), dtype=np.bool_)
    not_diag, not_e, nonzero = flags
    not_diag8, not_e8, nonzero8 = flags.view(np.int8)

    for i in range(1, rows + 1):
        up = h_all[i - 1]
        h_row = h_all[i, :w]
        e_row = e_cur[:w]
        # E and the diagonal term, from the previous row.
        np.add(up[1:], open_, out=open_e)
        np.add(e_prev[1:], ext, out=e_row)
        np.maximum(open_e, e_row, out=e_row)
        np.equal(e_row, open_e, out=e_open[i, :w])
        np.add(up[:w], h_row, out=diag)
        np.maximum(diag, e_row, out=h0)
        np.maximum(h0, 0, out=h0)
        # F by prefix-max scan, then the true H.
        np.add(h0[:-1], g_step[1:], out=g_tail)
        for a, shifted, o in scan:
            np.maximum(a, shifted, out=o)
        np.add(g_max, f_step, out=f_row)
        np.maximum(h0, f_row, out=h_row)
        np.add(h_row[:-1], open_, out=h_left[1:])
        np.equal(f_row, h_left, out=f_open[i, :w])
        # Pointer: 0 stop, else 1 diag, else 2 from-E, else 3 from-F
        # = nonzero * (1 + not_diag * (1 + not_e)).
        np.not_equal(h_row, diag, out=not_diag)
        np.not_equal(h_row, e_row, out=not_e)
        np.not_equal(h_row, 0, out=nonzero)
        np.add(not_e8, 1, out=not_e8)
        np.multiply(not_e8, not_diag8, out=not_e8)
        np.add(not_e8, 1, out=not_e8)
        np.multiply(not_e8, nonzero8, out=h_ptr[i, :w])
        e_prev, e_cur = e_cur, e_prev

    # Best cell per lane: first row-major occurrence of the maximum
    # over the lane's own cells (the scalar kernel's strict-improvement
    # scan).  Cells left of the matrix are 0 by construction; cells
    # beyond a lane's own target exist only in rows past n - half, and
    # are zeroed there.
    swept = h_all[:rows + 1]
    first = max(1, int(n_arr.min()) - half + 1)
    if first <= rows:
        j_grid = (np.arange(first, rows + 1)[:, None] - half
                  + np.arange(width)[None, :])
        swept[first:] *= j_grid[:, :, None] <= n_arr[None, None, :]
    best_i = swept.max(axis=1).argmax(axis=0)
    lanes = np.arange(B)
    best_rows = swept[best_i, :, lanes]
    best_r = best_rows.argmax(axis=1)
    best = best_rows[lanes, best_r]

    out: "list[TracedAlignment]" = []
    empty = TracedAlignment(0, 0, 0, 0, 0, (("S", m),))
    for b in range(B):
        score = int(best[b])
        if score <= 0:
            out.append(empty)
            continue
        i = int(best_i[b])
        out.append(walk_back(q[b], t16[b], h_ptr[:, :, b],
                             e_open[:, :, b], f_open[:, :, b], score, i,
                             int(best_r[b]) + i - half, half, m))
    return out
