"""Anti-diagonal wavefront banded Smith-Waterman *with traceback* over a
batch of lanes.

A lane is one (query, target window) pair.  :func:`batched_sw_traceback`
sweeps ``B`` lanes at once -- each with its own query row of a ``(B, m)``
block, or all sharing one 1-D query (the broadcast case of the same
code) -- and returns exactly what ``B`` calls to
:func:`repro.extend.traceback.banded_sw_traceback` would: same scores,
same coordinates, same CIGAR tuples.  It is the output-producing sibling
of :func:`repro.kernels.sw.batched_banded_sw`: the H/E/F recurrences are
swept by the same anti-diagonal wavefront over rotating ``(B, m + 1)``
planes, but every in-band cell additionally records its traceback state
into band-relative pointer planes -- ``h_ptr`` (int8: stop / diagonal /
from-E / from-F) plus ``e_open`` / ``f_open`` (bool: did the gap state
open here or extend?) of shape ``(B, m + 1, width)``, carved from the
caller's :class:`~repro.extend.smith_waterman.SwWorkspace` -- in the
same layout the scalar kernel builds row by row.  After the sweep, each
lane's alignment is recovered by the *shared* walk-back
(:func:`repro.extend.traceback.walk_back`), so the CIGARs are identical
to the scalar kernel's by construction, not merely by test.

Three departures from :func:`~repro.kernels.sw.batched_banded_sw` keep
the per-diagonal numpy call count low enough to beat the scalar row
loop at small batch sizes:

* **Boundary pinning instead of masking.**  The scalar kernel's
  out-of-band reads (H as 0, E/F as ``NEG_INF``) are materialized by
  pinning the one plane column on either side of each diagonal's
  written span, so the recurrences are straight slice arithmetic with
  no per-diagonal ``ok``-mask construction or ``np.where`` repairs.
  (This is the wavefront analogue of the rotating-row pinning in
  :func:`repro.extend.traceback.banded_sw_traceback`.)
* **Strided flat writes.**  A diagonal maps to band-relative pointer
  cells ``(i, half + d - 2i)``; on the flattened ``(m + 1) * width``
  plane those sit at a constant stride of ``width - 2``, so each
  pointer plane takes one basic-slice write per diagonal instead of a
  fancy-indexed scatter.
* **Post-sweep best search.**  H values are also streamed into a full
  band-relative plane; the best cell (first row-major occurrence of
  the maximum -- the scalar tie-break) is one masked ``argmax`` per
  lane after the sweep, replacing per-diagonal max/argmax/compare
  bookkeeping.

The ~200 per-diagonal numpy calls of a sweep cost the same whether
they carry 3 lanes or 64, so the per-lane cost falls steeply with the
lane count (101 bp reads, band 41: 2.2 ms at B = 3, 1.0 ms at B = 8,
0.29 ms at B = 64, 0.23 ms at B = 128).  Callers therefore pack lanes
from *different reads* of a batch into one call
(:meth:`repro.extend.pipeline.ReadAligner.extend_batch`), and the entry
point splits the lanes evenly into sweeps of at most
:data:`MAX_WAVEFRONT_LANES`.  A call whose total
lane count is below :data:`MIN_WAVEFRONT_LANES` -- in a packed run only
a one-read batch such as ``ert-repro explain --read-id``, or a read
whose length no other read of its batch shares -- is not worth a sweep
and goes to the scalar kernel lane by lane (trivially identical output).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.telemetry.metrics import FRACTION_EDGES
from repro.extend.smith_waterman import (
    DEFAULT_SCHEME,
    NEG_INF,
    ScoringScheme,
    SwWorkspace,
)
from repro.extend.traceback import (
    _DIAG,
    _FROM_E,
    _FROM_F,
    _STOP,
    TracedAlignment,
    banded_sw_traceback,
    walk_back,
)

#: Below this many lanes the wavefront sweep loses to the scalar row
#: loop (numpy call overhead on ~band-wide diagonals dominates); the
#: batch entry point dispatches to the scalar kernel instead.
MIN_WAVEFRONT_LANES = 3
#: Most lanes one sweep carries, sized by memory: a lane owns seven
#: rotating rows, a band-relative H plane (int64) and three pointer
#: planes (int8) -- (7 (m + 1) + (m + 1) width) * 8 + 3 (m + 1) width
#: bytes, 53 kB at m = 101, band = 41 -- so 64 lanes keep a sweep's
#: planes near 3.4 MB and the process's peak RSS where the per-read
#: sweeps left it; 128 lanes are 1.3x faster per lane but add 6 MB.
MAX_WAVEFRONT_LANES = 64


def batched_sw_traceback(query: np.ndarray, targets: "list[np.ndarray]",
                         scheme: "ScoringScheme | None" = None,
                         band: int = 41,
                         workspace: "SwWorkspace | None" = None,
                         min_lanes: "int | None" = None
                         ) -> "list[TracedAlignment]":
    """Banded local alignment with CIGAR, one lane per target.

    ``query`` is a ``(B, m)`` block holding lane ``b``'s query in row
    ``b``, or one 1-D query shared by every lane.  Equivalent to
    ``[banded_sw_traceback(query_b, t, scheme, band, workspace) for
    query_b, t in lanes]``, computed wavefront-parallel in evenly split
    sweeps of at most :data:`MAX_WAVEFRONT_LANES` lanes.  ``min_lanes``
    overrides the scalar-dispatch crossover (the equivalence tests pin
    it to 1 to force the wavefront path on small batches).
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
    floor = MIN_WAVEFRONT_LANES if min_lanes is None else min_lanes
    if B < floor or m == 0 or max(t.size for t in t16) == 0:
        # Batch-granularity bookkeeping only (no-ops while telemetry is
        # off): which batches the wavefront declined, and why.
        telemetry.count("kernels.sw_scalar_batches")
        if B < floor:
            telemetry.count("kernels.fallback_scalar.lanes")
        return [banded_sw_traceback(q[b], t, scheme, band,
                                    workspace=workspace)
                for b, t in enumerate(t16)]
    sweeps = -(-B // MAX_WAVEFRONT_LANES)
    out: "list[TracedAlignment]" = []
    for k in range(sweeps):
        lo, hi = k * B // sweeps, (k + 1) * B // sweeps
        out += _sweep(q[lo:hi], t16[lo:hi], scheme, band, workspace)
    return out


def _sweep(q: np.ndarray, t16: "list[np.ndarray]", scheme: ScoringScheme,
           band: int, workspace: SwWorkspace) -> "list[TracedAlignment]":
    """One wavefront sweep: lane ``b`` aligns row ``b`` of the ``(B, m)``
    int16 block ``q`` against ``t16[b]``."""
    B, m = q.shape
    n_arr = np.array([t.size for t in t16], dtype=np.int64)
    n_max = int(n_arr.max())
    # Plane-fill fraction of this sweep: real target columns over the
    # (B, widest-lane) rectangle the rotating planes pay for.
    telemetry.observe("kernels.wavefront_fill",
                      float(n_arr.sum()) / (B * n_max),
                      edges=FRACTION_EDGES)
    half = band // 2
    width = 2 * half + 2

    # Targets padded with a sentinel that can never equal a base code.
    tpad = np.full((B, n_max + 1), 127, dtype=np.int64)
    for b, t in enumerate(t16):
        tpad[b, :t.size] = t
    q64 = q.astype(np.int64)

    # Seven rotating (B, m + 1) wavefront planes plus one full
    # band-relative H plane (the post-sweep best search), carved as
    # contiguous chunks of one workspace block.
    cols = m + 1
    plane = cols * width
    block = workspace.grid(1, 1, B * (7 * cols + plane))[0, 0]
    h_m2 = block[0 * B * cols:1 * B * cols].reshape(B, cols)
    h_m1 = block[1 * B * cols:2 * B * cols].reshape(B, cols)
    h_cur = block[2 * B * cols:3 * B * cols].reshape(B, cols)
    e_m1 = block[3 * B * cols:4 * B * cols].reshape(B, cols)
    e_cur = block[4 * B * cols:5 * B * cols].reshape(B, cols)
    f_m1 = block[5 * B * cols:6 * B * cols].reshape(B, cols)
    f_cur = block[6 * B * cols:7 * B * cols].reshape(B, cols)
    h_all = block[7 * B * cols:].reshape(B, plane)
    h_m2[:] = 0
    h_m1[:] = 0
    e_m1[:] = NEG_INF
    f_m1[:] = NEG_INF
    h_all[:] = 0

    h_ptr, e_open, f_open = workspace.ptr_planes(B, cols, width)
    ptr_flat = h_ptr.reshape(B, plane)
    eopen_flat = e_open.reshape(B, plane)
    fopen_flat = f_open.reshape(B, plane)
    # The walk-back provably never reads an unwritten cell (every
    # positive H/E/F value implies an in-band, already-swept source),
    # but a zeroed H-pointer plane turns any future regression into a
    # deterministic early stop rather than garbage-driven output.
    h_ptr[:] = _STOP

    match = scheme.match
    mismatch = scheme.mismatch
    open_ = scheme.gap_open
    ext = scheme.gap_extend
    stride = width - 2  # flat step between successive rows of a diagonal

    for d in range(2, m + n_max + 1):
        i_lo = max(1, (d - half + 1) // 2, d - n_max)
        i_hi = min(m, (d + half) // 2, d - 1)
        if i_lo > i_hi:
            if d - n_max > min(m, (d + half) // 2) \
                    or (d - half + 1) // 2 > m:
                break  # the band has left the matrix for good
            # Parity gap (band 1): no in-band cell on this diagonal, but
            # later diagonals still read it -- fill with the boundary
            # values a masked kernel would have substituted, and rotate.
            h_cur[:] = 0
            e_cur[:] = NEG_INF
            f_cur[:] = NEG_INF
            h_m2, h_m1, h_cur = h_m1, h_cur, h_m2
            e_m1, e_cur = e_cur, e_m1
            f_m1, f_cur = f_cur, f_m1
            continue

        # All source reads are plain slices: boundary pinning (below)
        # already planted H = 0 / E,F = NEG_INF in the one column on
        # either side of the previous diagonals' written spans, which is
        # exactly as far as any in-band cell can reach.
        e_new = np.maximum(h_m1[:, i_lo - 1:i_hi] + open_,
                           e_m1[:, i_lo - 1:i_hi] + ext)
        f_new = np.maximum(h_m1[:, i_lo:i_hi + 1] + open_,
                           f_m1[:, i_lo:i_hi + 1] + ext)
        # Match term: target index j - 1 = d - 1 - i runs *down* as the
        # row runs up, a negative-step slice of the padded target block.
        t_hi = d - 1 - i_lo
        t_lo = d - 2 - i_hi
        tview = tpad[:, t_hi:t_lo if t_lo >= 0 else None:-1]
        sub = np.where(tview == q64[:, i_lo - 1:i_hi],
                       match, mismatch)
        diag = h_m2[:, i_lo - 1:i_hi] + sub
        h_new = np.maximum(np.maximum(diag, 0),
                           np.maximum(e_new, f_new))

        h_cur[:, i_lo:i_hi + 1] = h_new
        e_cur[:, i_lo:i_hi + 1] = e_new
        f_cur[:, i_lo:i_hi + 1] = f_new
        # Boundary pinning for the next two diagonals' readers.
        h_cur[:, i_lo - 1] = 0
        e_cur[:, i_lo - 1] = NEG_INF
        f_cur[:, i_lo - 1] = NEG_INF
        if i_hi < m:
            h_cur[:, i_hi + 1] = 0
            e_cur[:, i_hi + 1] = NEG_INF
            f_cur[:, i_hi + 1] = NEG_INF

        # Pointer cells (i, half + d - 2i) sit at constant flat stride
        # width - 2; priority order is stop, diagonal, E, then F, same
        # as the scalar kernel's per-cell chain.
        start = i_lo * stride + half + d
        sl = slice(start, start + (i_hi - i_lo + 1) * max(stride, 1),
                   max(stride, 1))
        ptr_flat[:, sl] = np.where(
            h_new == 0, _STOP,
            np.where(h_new == diag, _DIAG,
                     np.where(h_new == e_new, _FROM_E, _FROM_F)))
        eopen_flat[:, sl] = h_m1[:, i_lo - 1:i_hi] + open_ \
            >= e_m1[:, i_lo - 1:i_hi] + ext
        fopen_flat[:, sl] = h_m1[:, i_lo:i_hi + 1] + open_ \
            >= f_m1[:, i_lo:i_hi + 1] + ext
        h_all[:, sl] = h_new

        h_m2, h_m1, h_cur = h_m1, h_cur, h_m2
        e_m1, e_cur = e_cur, e_m1
        f_m1, f_cur = f_cur, f_m1

    # Best cell per lane: the plane was zeroed, only in-band cells were
    # written, and flat order is row-major in (i, j) -- so a masked
    # first-occurrence argmax reproduces the scalar kernel's strict-
    # improvement scan exactly.  The mask removes cells beyond each
    # lane's own target (written from sentinel padding).
    i_idx = np.arange(cols, dtype=np.int64)
    j_grid = (i_idx[:, None] - half
              + np.arange(width, dtype=np.int64)[None, :]).reshape(plane)
    scores = np.where(j_grid[None, :] <= n_arr[:, None], h_all, 0)
    flat_best = scores.argmax(axis=1)
    best = scores[np.arange(B), flat_best]

    out: "list[TracedAlignment]" = []
    empty = None
    for b in range(B):
        score = int(best[b])
        if score <= 0:
            if empty is None:
                empty = TracedAlignment(
                    0, 0, 0, 0, 0, (("S", m),) if m else ())
            out.append(empty)
            continue
        best_i, r = divmod(int(flat_best[b]), width)
        best_j = r + best_i - half
        out.append(walk_back(q[b], t16[b], h_ptr[b], e_open[b], f_open[b],
                             score, best_i, best_j, half, m))
    return out
