"""Seed extension and the full read-alignment pipeline.

The paper's end-to-end number (Table VI) couples the ERT seeding
accelerator with SeedEx-style seed-extension accelerator lanes.  This
package supplies the functional substrate and the lane-level model:

* :mod:`repro.extend.smith_waterman` -- affine-gap scoring and the
  batched kernel's workspace;
* :mod:`repro.extend.traceback` -- banded Smith-Waterman: the exact-lane
  shortcut and the scalar kernel (score, coordinates and CIGAR) every
  other extension runs on unless a batched one is injected;
* :mod:`repro.extend.chaining` -- BWA-style colinear seed chaining;
* :mod:`repro.extend.seedex` -- the SeedEx lane throughput/occupancy model
  (3 banded SW units x 41 PEs + 1 edit-distance unit per lane, 8 lanes);
* :mod:`repro.extend.pipeline` -- :class:`ReadAligner`, the complete
  seed -> chain -> extend pipeline over any seeding engine, whose one
  extension path (``extend_batch``) yields the placements
  (:class:`Placement`) behind ``align``, the SAM output and the
  paired-end aligner.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.extend.chaining import Chain, chain_seeds
    from repro.extend.paired import PairedAligner
    from repro.extend.pipeline import Alignment, Placement, ReadAligner
    from repro.extend.sam import SamRecord, sam_header, write_sam
    from repro.extend.seedex import SeedExConfig, SeedExModel
    from repro.extend.smith_waterman import (
        DEFAULT_SCHEME,
        ScoringScheme,
        SwWorkspace,
    )
    from repro.extend.traceback import TracedAlignment, banded_sw_traceback

__all__ = [
    "Alignment",
    "PairedAligner",
    "Placement",
    "Chain",
    "DEFAULT_SCHEME",
    "ReadAligner",
    "SamRecord",
    "ScoringScheme",
    "SwWorkspace",
    "SeedExConfig",
    "SeedExModel",
    "TracedAlignment",
    "banded_sw_traceback",
    "chain_seeds",
    "sam_header",
    "write_sam",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.extend.chaining": ("Chain", "chain_seeds"),
    "repro.extend.paired": ("PairedAligner",),
    "repro.extend.pipeline": ("Alignment", "Placement", "ReadAligner"),
    "repro.extend.sam": ("SamRecord", "sam_header", "write_sam"),
    "repro.extend.seedex": ("SeedExConfig", "SeedExModel"),
    "repro.extend.smith_waterman": (
        "DEFAULT_SCHEME", "ScoringScheme", "SwWorkspace"),
    "repro.extend.traceback": ("TracedAlignment", "banded_sw_traceback"),
})
