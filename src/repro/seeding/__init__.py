"""Engine-agnostic seeding: SMEM algorithm, reseeding, LAST, and the oracle.

BWA-MEM2's seeding has three stages (paper §V: "SMEM generation, reseeding,
and LAST").  This package implements all three *once*, against the abstract
:class:`~repro.seeding.engine.SeedingEngine` interface; the FMD-index and
the ERT each provide an engine.  Because both engines execute the same
algorithm skeleton, the paper's bit-equivalence claim ("100% identical
output") becomes a structural property here, and
:mod:`repro.seeding.verify` checks it against a brute-force oracle.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.seeding.algorithm import (
        SeedingParams,
        generate_smems,
        seed_read,
    )
    from repro.seeding.engine import EngineStats, ForwardSearch, SeedingEngine
    from repro.seeding.oracle import OracleEngine, oracle_smems
    from repro.seeding.types import Mem, Seed, SeedingResult
    from repro.seeding.verify import assert_equivalent, compare_engines

__all__ = [
    "EngineStats",
    "ForwardSearch",
    "Mem",
    "OracleEngine",
    "Seed",
    "SeedingEngine",
    "SeedingParams",
    "SeedingResult",
    "assert_equivalent",
    "compare_engines",
    "generate_smems",
    "oracle_smems",
    "seed_read",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.seeding.algorithm": ("SeedingParams", "generate_smems",
                                "seed_read"),
    "repro.seeding.engine": ("EngineStats", "ForwardSearch",
                             "SeedingEngine"),
    "repro.seeding.oracle": ("OracleEngine", "oracle_smems"),
    "repro.seeding.types": ("Mem", "Seed", "SeedingResult"),
    "repro.seeding.verify": ("assert_equivalent", "compare_engines"),
})
