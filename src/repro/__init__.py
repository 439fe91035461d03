"""repro: reproduction of the ISCA 2021 ERT seeding paper.

Subpackages:

* :mod:`repro.sequence` -- DNA substrate (references, simulators, I/O)
* :mod:`repro.fmindex`  -- the FMD-index baseline
* :mod:`repro.seeding`  -- the engine-agnostic three-round seeding algorithm
* :mod:`repro.core`     -- the Enumerated Radix Tree (the paper's contribution)
* :mod:`repro.memsim`   -- traffic tracing, caches, DRAM row-buffer model
* :mod:`repro.accel`    -- the seeding-accelerator simulator
* :mod:`repro.extend`   -- Smith-Waterman, chaining, SAM, full aligner
* :mod:`repro.analysis` -- traffic measurement, roofline, divergence
* :mod:`repro.telemetry`-- metrics registry, span tracer, profile reports
* :mod:`repro.baselines`-- hash-table seeding (related-work comparison)

The most common entry points are re-exported here.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro import telemetry
    from repro.core import (
        ErtConfig,
        ErtSeedingEngine,
        build_ert,
        load_ert,
        save_ert,
    )
    from repro.extend import ReadAligner
    from repro.fmindex import FmdConfig, FmdIndex, FmdSeedingEngine
    from repro.seeding import SeedingParams, seed_read
    from repro.sequence import GenomeSimulator, ReadSimulator, Reference

__version__ = "1.0.0"

__all__ = [
    "ErtConfig",
    "ErtSeedingEngine",
    "FmdConfig",
    "FmdIndex",
    "FmdSeedingEngine",
    "GenomeSimulator",
    "ReadAligner",
    "ReadSimulator",
    "Reference",
    "SeedingParams",
    "build_ert",
    "load_ert",
    "save_ert",
    "seed_read",
    "telemetry",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.telemetry": ("telemetry",),
    "repro.core": ("ErtConfig", "ErtSeedingEngine", "build_ert", "load_ert",
                   "save_ert"),
    "repro.extend": ("ReadAligner",),
    "repro.fmindex": ("FmdConfig", "FmdIndex", "FmdSeedingEngine"),
    "repro.seeding": ("SeedingParams", "seed_read"),
    "repro.sequence": ("GenomeSimulator", "ReadSimulator", "Reference"),
})
