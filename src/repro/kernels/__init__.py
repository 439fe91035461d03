"""The vector backend: the batched extension kernels.

Seeding runs over whole batches of reads through the one driver,
:func:`repro.seeding.algorithm.seed_batch` (re-exported here with
:class:`~repro.seeding.stats.KernelBatchStats` and ``wall_shares``): one
per-read state machine over the arena, the paper's own design (§IV:
independent per-read contexts, each walking one tree).  Extension runs
as numpy sweeps over many (read, window) lanes at once:

* :mod:`repro.core.arena` -- the structure-of-arrays form of the radix
  trees: part of the index payload, so a loaded index hands it over as
  stored (``flat_trees``, re-exported here), with the column accessor
  (zero-copy ``memoryview`` columns) the walk reads it through.
* :mod:`repro.kernels.traceback` -- the batched Smith-Waterman kernel:
  a row scan (the band swept row by row, F by one prefix-max scan per
  row) over (read, window) lanes packed across the reads of a batch,
  with two entries into the one sweep.  ``batched_sw_traceback`` fills
  band-relative pointer planes and walks each lane back;
  ``batched_banded_sw`` writes no pointer plane and returns each lane's
  score and end cell.  Every extension that is not an exact lane is
  scored or traced through them (``ReadAligner.extend_batch``):
  every DP lane is scored, and only the lanes whose best path is
  gapped are traced.

The CLI's ``--kernels`` (``ParallelConfig.kernels``) selects the
extension kernels only: ``vector`` (the default) packs lanes into the
batched ones, ``scalar`` runs one ``banded_sw_traceback`` per lane,
the oracle.  The two produce byte-identical output;
``tests/test_kernels.py`` enforces it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.arena import FlatTrees, flat_trees
    from repro.kernels.traceback import (
        batched_banded_sw, batched_sw_traceback)
    from repro.seeding.algorithm import seed_batch
    from repro.seeding.stats import KernelBatchStats, wall_shares

KERNEL_CHOICES = ("scalar", "vector")

__all__ = [
    "FlatTrees",
    "KernelBatchStats",
    "flat_trees",
    "seed_batch",
    "wall_shares",
    "batched_banded_sw",
    "batched_sw_traceback",
    "KERNEL_CHOICES",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.arena": ("FlatTrees", "flat_trees"),
    "repro.kernels.traceback": ("batched_banded_sw",
                                "batched_sw_traceback"),
    "repro.seeding.algorithm": ("seed_batch",),
    "repro.seeding.stats": ("KernelBatchStats", "wall_shares"),
})
