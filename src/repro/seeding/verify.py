"""Engine equivalence checking (the paper's bit-equivalence guarantee).

The paper's clinical-use argument rests on ERT seeding producing *exactly*
the seeds BWA-MEM2's FMD-index produces (§I, "binary equivalent").  These
helpers compare full :class:`~repro.seeding.types.SeedingResult` outputs
between any two engines, read by read, and raise with a precise diff on the
first divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.seeding.algorithm import SeedingParams, seed_read
from repro.seeding.engine import SeedingEngine

#: Divergent reads a comparison reports before it stops.
MAX_MISMATCHES = 5


@dataclass
class ComparisonReport:
    """Outcome of comparing two engines over a batch of reads."""

    reads: int = 0
    seeds: int = 0
    mismatches: "list[str]" = None

    def __post_init__(self) -> None:
        if self.mismatches is None:
            self.mismatches = []

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def compare_engines(engine_a: SeedingEngine, engine_b: SeedingEngine,
                    reads: "list[np.ndarray]",
                    params: "SeedingParams | None" = None
                    ) -> ComparisonReport:
    """Seed every read with both engines and compare canonical outputs,
    stopping at the :data:`MAX_MISMATCHES`-th read that differs."""
    params = params or SeedingParams()
    report = ComparisonReport()
    for i, read in enumerate(reads):
        result_a = seed_read(engine_a, read, params)
        result_b = seed_read(engine_b, read, params)
        key_a, key_b = result_a.key(), result_b.key()
        report.reads += 1
        report.seeds += len(key_a)
        if key_a != key_b:
            only_a = set(key_a) - set(key_b)
            only_b = set(key_b) - set(key_a)
            report.mismatches.append(
                f"read {i}: {engine_a.name} produced {len(key_a)} seeds, "
                f"{engine_b.name} produced {len(key_b)}; "
                f"only-{engine_a.name}={sorted(only_a)[:3]}, "
                f"only-{engine_b.name}={sorted(only_b)[:3]}")
            if len(report.mismatches) >= MAX_MISMATCHES:
                break
    return report


def assert_equivalent(engine_a: SeedingEngine, engine_b: SeedingEngine,
                      reads: "list[np.ndarray]",
                      params: "SeedingParams | None" = None) -> ComparisonReport:
    """Like :func:`compare_engines` but raises on any divergence."""
    report = compare_engines(engine_a, engine_b, reads, params)
    if not report.equivalent:
        detail = "\n  ".join(report.mismatches)
        raise AssertionError(
            f"engines {engine_a.name} and {engine_b.name} diverged:\n  {detail}")
    return report
