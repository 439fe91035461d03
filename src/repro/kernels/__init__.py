"""The vector backend: arena seeding and batched extension kernels.

The scalar engine (:mod:`repro.core.engine`) steps a cursor over arena
node ids one read character per Python-level call.  The kernels here do
the same work over the same columns: seeding as one per-read state
machine over the arena (the paper's own design, §IV: independent
per-read contexts, each walking one tree), extension as numpy sweeps
over many (read, window) lanes at once:

* :mod:`repro.core.arena` -- the structure-of-arrays form of the radix
  trees: part of the index payload, so a loaded index hands it over as
  stored (``flat_trees``, re-exported here), with the column accessor
  (zero-copy ``memoryview`` columns) both walks read it through.
* :mod:`repro.kernels.walk` -- the one run-granular walk loop every
  search is.
* :mod:`repro.kernels.seeding` -- the arena seeding engine and
  ``seed_batch``, which runs the three rounds of
  :mod:`repro.seeding.algorithm` over it; byte-identical seeds to the
  scalar oracle.
* :mod:`repro.kernels.traceback` -- the batched Smith-Waterman kernel:
  a row scan (the band swept row by row, F by one prefix-max scan per
  row) filling band-relative pointer planes, then a per-lane walk-back,
  over (read, window) lanes packed across the reads of a batch.  Every
  extension that is not an exact lane batches through it
  (``ReadAligner.extend_batch``).  ``batched_banded_sw`` is
  a second name for it, kept only for ``benchmarks/pipeline/layers.py``.
* :mod:`repro.kernels.stats` -- batch-granularity accumulators: the
  kernels count into plain ints and ndarrays and flush the metrics
  registry once per batch, so vector mode runs fully observed with the
  hot loops telemetry-call-free (ERT007/ERT017).

The scalar path remains the oracle: the vector path is selected with
``REPRO_KERNELS=vector`` (CLI ``--kernels vector``) and must produce
byte-identical output; the randomized equivalence suite in
``tests/test_kernels.py`` enforces this.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.arena import FlatTrees, flat_trees
    from repro.kernels.seeding import seed_batch, vector_decline_reason
    from repro.kernels.stats import KernelBatchStats, wall_shares
    from repro.kernels.traceback import (
        batched_banded_sw, batched_sw_traceback)

KERNEL_CHOICES = ("scalar", "vector")


def resolve_kernels(value: "str | None" = None) -> str:
    """Normalize a kernel selection: explicit value, else the
    ``REPRO_KERNELS`` environment variable, else ``scalar``."""
    chosen = value if value is not None else os.environ.get("REPRO_KERNELS")
    if chosen is None or chosen == "":
        return "scalar"
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
    "vector_decline_reason",
    "wall_shares",
    "batched_banded_sw",
    "batched_sw_traceback",
    "KERNEL_CHOICES",
    "resolve_kernels",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.arena": ("FlatTrees", "flat_trees"),
    "repro.kernels.seeding": ("seed_batch", "vector_decline_reason"),
    "repro.kernels.stats": ("KernelBatchStats", "wall_shares"),
    "repro.kernels.traceback": ("batched_banded_sw",
                                "batched_sw_traceback"),
})
