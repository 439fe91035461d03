"""The SeedEx seed-extension accelerator model (paper §VI, Table VI).

The paper pairs the FPGA seeding accelerator with 8 SeedEx lanes, each
holding 3 banded Smith-Waterman units (41 PEs, band 41) and one
edit-distance unit.  A systolic banded unit computes one band row per
cycle, so one extension of a ``q``-base query costs about ``q + band``
cycles; the edit-distance unit checks every candidate in a single pass
at the same rate, and only the candidates it cannot clear go on to SW.
This model turns per-read extension workloads into lane cycles and
throughput.  The workloads come from the lanes
:meth:`~repro.extend.pipeline.ReadAligner.extend_batch` runs: every lane
is one edit check, and the lanes that are not exact copies of the read
(:func:`~repro.extend.traceback.exact_lane`) are the SW extensions.
The edit unit itself has no functional counterpart; the exact lane is
the only check that removes a DP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.extend.pipeline import ExtensionWorkload


@dataclass(frozen=True)
class SeedExConfig:
    """Lane provisioning (§VI: "8 seed-extension accelerator lanes ...
    3 banded Smith-Waterman units (each with 41 PEs, band-size=41) and
    1 edit-distance unit")."""

    lanes: int = 8
    sw_units_per_lane: int = 3
    edit_units_per_lane: int = 1
    clock_hz: float = 250e6
    pipeline_fill: int = 20

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.sw_units_per_lane < 1:
            raise ValueError("at least one lane and one SW unit required")


class SeedExModel:
    """Cycle/throughput model over measured extension workloads."""

    def __init__(self, config: "SeedExConfig | None" = None) -> None:
        self.config = config or SeedExConfig()

    def throughput_reads_per_s(self,
                               workloads: "list[ExtensionWorkload]") -> float:
        """Aggregate extension throughput given per-read workloads.

        Work spreads over every SW unit in every lane; the edit-distance
        units run in parallel and are rarely the bottleneck, but both
        pools are checked and the slower one decides.
        """
        if not workloads:
            return float("inf")
        cfg = self.config
        sw_cycles = sum(w.sw_rows_total + w.sw_extensions * cfg.pipeline_fill
                        for w in workloads)
        edit_cycles = sum(w.edit_rows_total
                          + w.edit_checks * cfg.pipeline_fill
                          for w in workloads)
        sw_pool = cfg.lanes * cfg.sw_units_per_lane
        edit_pool = cfg.lanes * cfg.edit_units_per_lane
        seconds = max(sw_cycles / sw_pool, edit_cycles / edit_pool) / cfg.clock_hz
        if seconds <= 0:
            return float("inf")
        return len(workloads) / seconds
