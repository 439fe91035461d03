"""Affine-gap scoring and the batched kernel's workspace.

This module holds what the extension kernels share --
:class:`ScoringScheme` (BWA-MEM defaults: match +1, mismatch -4, gap
open -6, gap extend -1) and :class:`SwWorkspace`.  Smith-Waterman runs
on two kernels, :func:`repro.extend.traceback.banded_sw_traceback`
(scalar) and :func:`repro.kernels.traceback.batched_sw_traceback`
(batched), after :func:`repro.extend.traceback.exact_lane` has answered
the lanes whose read occurs exactly in band.  The SeedEx lane's
edit-distance unit (§VI) exists only in the cycle model
(:mod:`repro.extend.seedex`).
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
#: hot path (ReadAligner, the Smith-Waterman kernels) reuse this instead of
#: validating a fresh dataclass per call.
DEFAULT_SCHEME = ScoringScheme()


class SwWorkspace:
    """Reusable planes for :func:`repro.kernels.traceback.
    batched_sw_traceback`.

    A sweep carves its score plane and band rows from :meth:`grid` and
    its pointer planes from :meth:`ptr_planes`.  A workspace owned by the
    caller (one per :class:`~repro.extend.pipeline.ReadAligner`) keeps
    both resident across every sweep of every batch: re-filled, never
    re-allocated, unless a sweep needs more cells.
    """

    __slots__ = ("_grid", "_planes")

    # repro: hot -- batched_sw_traceback makes one when handed none.
    def __init__(self) -> None:
        self._grid: "np.ndarray | None" = None
        self._planes: "np.ndarray | None" = None

    def grid(self, planes: int, rows: int, cols: int,
             dtype=np.int64) -> np.ndarray:
        """A ``(planes, rows, cols)`` block of ``dtype`` for a batched
        kernel's rows and score planes (contents unspecified); reused
        across calls, and allocated afresh when a call needs more cells
        or another dtype than the last one left -- one block is
        resident, never one per dtype."""
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
        demand like :meth:`grid`."""
        need = 3 * planes * rows * cols
        if self._planes is None or self._planes.size < need:
            self._planes = np.empty(max(need, 4096), dtype=np.int8)
        block = self._planes[:need].reshape(3, planes, rows, cols)
        return block[0], block[1].view(np.bool_), block[2].view(np.bool_)
