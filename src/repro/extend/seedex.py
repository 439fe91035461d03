"""The SeedEx seed-extension accelerator model (paper §VI, Table VI).

The paper pairs the FPGA seeding accelerator with 8 SeedEx lanes, each
holding 3 banded Smith-Waterman units (41 PEs, band 41) and one
edit-distance unit.  A systolic banded unit computes one band row per
cycle, so one extension of a ``q``-base query costs about ``q + band``
cycles; the edit-distance unit clears near-perfect candidates in a single
pass at the same rate.  This model turns per-read extension workloads
into lane cycles and throughput.
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
    band: int = 41
    clock_hz: float = 250e6
    pipeline_fill: int = 20

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.sw_units_per_lane < 1:
            raise ValueError("at least one lane and one SW unit required")


class SeedExModel:
    """Cycle/throughput model over measured extension workloads."""

    def __init__(self, config: "SeedExConfig | None" = None) -> None:
        self.config = config or SeedExConfig()

    def cycles_for(self, workload: ExtensionWorkload) -> int:
        """Total busy cycles one lane-unit pool spends on a workload."""
        cfg = self.config
        sw = workload.sw_rows_total + workload.sw_extensions * cfg.pipeline_fill
        edit = (workload.edit_rows_total
                + workload.edit_checks * cfg.pipeline_fill)
        return sw + edit

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
