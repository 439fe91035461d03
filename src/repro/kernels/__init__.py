"""The vector backend: batch seeding and batched extension kernels.

Seeding and extension run over whole batches of reads: seeding as one
per-read state machine over the arena (the paper's own design, §IV:
independent per-read contexts, each walking one tree), extension as
numpy sweeps over many (read, window) lanes at once:

* :mod:`repro.core.arena` -- the structure-of-arrays form of the radix
  trees: part of the index payload, so a loaded index hands it over as
  stored (``flat_trees``, re-exported here), with the column accessor
  (zero-copy ``memoryview`` columns) the walk reads it through.
* :mod:`repro.kernels.seeding` -- ``seed_batch``, which runs the three
  rounds of :mod:`repro.seeding.algorithm` over the one seeding engine
  (:class:`~repro.core.engine.ErtSeedingEngine`, whose every search is
  :func:`repro.core.walk.walk`) and observes the batch at once.
* :mod:`repro.kernels.traceback` -- the batched Smith-Waterman kernel:
  a row scan (the band swept row by row, F by one prefix-max scan per
  row) filling band-relative pointer planes, then a per-lane walk-back,
  over (read, window) lanes packed across the reads of a batch.  Every
  extension that is not an exact lane batches through it
  (``ReadAligner.extend_batch``).  ``batched_banded_sw`` is
  a second name for it, kept only for ``benchmarks/pipeline/layers.py``.
* :mod:`repro.kernels.stats` -- batch-granularity accumulators: the
  kernels count into plain ints and ndarrays and flush the metrics
  registry once per batch, so runs are fully observed with the hot
  loops telemetry-call-free (ERT007/ERT017).

``REPRO_KERNELS`` (CLI ``--kernels``) selects the traceback kernel
only: ``vector`` (the default) packs lanes into the batched kernel,
``scalar`` runs one ``banded_sw_traceback`` per lane, the oracle.  The
two produce byte-identical output; ``tests/test_kernels.py`` enforces
it.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.arena import FlatTrees, flat_trees
    from repro.kernels.seeding import seed_batch
    from repro.kernels.stats import KernelBatchStats, wall_shares
    from repro.kernels.traceback import (
        batched_banded_sw, batched_sw_traceback)

KERNEL_CHOICES = ("scalar", "vector")


def resolve_kernels(value: "str | None" = None) -> str:
    """Normalize a kernel selection: explicit value, else the
    ``REPRO_KERNELS`` environment variable, else ``vector``."""
    chosen = value if value is not None else os.environ.get("REPRO_KERNELS")
    if chosen is None or chosen == "":
        return "vector"
    if chosen not in KERNEL_CHOICES:
        source = "kernels selection" if value is not None \
            else "REPRO_KERNELS value"
        raise ValueError(
            f"unknown {source} {chosen!r}; expected one of "
            f"{'/'.join(KERNEL_CHOICES)}")
    return chosen


__all__ = [
    "FlatTrees",
    "KernelBatchStats",
    "flat_trees",
    "seed_batch",
    "wall_shares",
    "batched_banded_sw",
    "batched_sw_traceback",
    "KERNEL_CHOICES",
    "resolve_kernels",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.arena": ("FlatTrees", "flat_trees"),
    "repro.kernels.seeding": ("seed_batch",),
    "repro.kernels.stats": ("KernelBatchStats", "wall_shares"),
    "repro.kernels.traceback": ("batched_banded_sw",
                                "batched_sw_traceback"),
})
