"""DRAM energy accounting (the DRAMPower stand-in, paper §V).

A page open costs an ACT/PRE pair; every line transfer costs a read
burst; idle channels draw background power.  Constants are DDR4-class
(nanojoule scale) -- the aim is the paper's Table III cross-check (DRAM
~2.2 W under load), not datasheet-exact numbers.
"""

# ERT004 exception: energy accounting is float-domain by nature
# (nanojoules, watts); the integer event counts it consumes are produced
# and checked elsewhere (PageStats in repro.memsim.dram).
# repro: allow-file(ERT004)

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramEnergyConfig:
    """Per-operation energy and background power."""

    activate_nj: float = 2.5
    read_line_nj: float = 1.2
    background_w_per_channel: float = 0.12

    def __post_init__(self) -> None:
        if self.activate_nj < 0 or self.read_line_nj < 0:
            raise ValueError("energies must be non-negative")


@dataclass(frozen=True)
class DramEnergyReport:
    """Energy split of one simulated interval."""

    activate_j: float
    read_j: float
    background_j: float

    @property
    def total_j(self) -> float:
        return self.activate_j + self.read_j + self.background_j

    def power_w(self, seconds: float) -> float:
        if seconds <= 0:
            raise ValueError("interval must be positive")
        return self.total_j / seconds


def dram_energy(page_opens: int, row_hits: int, channels: int,
                seconds: float, config: "DramEnergyConfig | None" = None
                ) -> DramEnergyReport:
    """Energy of ``page_opens + row_hits`` line reads, ``page_opens`` of
    them opening a page, on ``channels`` channels over ``seconds``."""
    config = config or DramEnergyConfig()
    background = (config.background_w_per_channel
                  * channels * max(seconds, 0.0))
    return DramEnergyReport(
        activate_j=page_opens * config.activate_nj * 1e-9,
        read_j=(page_opens + row_hits) * config.read_line_nj * 1e-9,
        background_j=background,
    )
