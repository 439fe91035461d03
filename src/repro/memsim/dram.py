"""A DRAM channel/bank/row-buffer model with an open-page policy.

Stands in for Ramulator in the paper's methodology (§V).  The model tracks
the open row in every (channel, bank) pair; an access to a different row is
a *page open* (row-buffer miss).  Page opens are counted per seeding phase,
which is exactly the data behind the paper's Fig 13 (page-open breakdown for
ERT-KR) and Fig 14 (page opens per read across ERT / ERT-PM / ERT-KR).

The same model supplies access latencies to the accelerator simulator:
row-buffer hits cost ``t_hit`` cycles and misses ``t_miss`` cycles, plus
queueing delay from per-channel bandwidth limits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class DramConfig:
    """Geometry and timing of the modelled DRAM system.

    Defaults approximate 8-channel DDR4 as in the paper's ASIC evaluation
    (Table III lists 8 channels); the FPGA configuration narrows this to the
    F1 instance's 4 channels per FPGA with higher effective latency.
    """

    channels: int = 8
    banks_per_channel: int = 16
    row_size: int = 2048
    line_size: int = 64
    t_hit: int = 20
    t_miss: int = 45
    #: Minimum cycles between line transfers on one channel (bandwidth limit).
    cycles_per_line: int = 4

    def __post_init__(self) -> None:
        for name in ("channels", "banks_per_channel", "row_size", "line_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.row_size % self.line_size:
            raise ValueError("row_size must be a multiple of line_size")


@dataclass
class PageStats:
    """Row-buffer hit / page-open counters.

    ``row_conflicts`` subdivides ``page_opens``: a page open against a
    bank whose row buffer held a *different* row (as opposed to a cold
    bank), i.e. the accesses that pay a precharge on top of the activate.
    """

    row_hits: int = 0
    page_opens: int = 0
    row_conflicts: int = 0

    @property
    def accesses(self) -> int:
        return self.row_hits + self.page_opens

    @property
    def hit_rate(self) -> float:
        # Derived reporting ratio, not accounting state (ERT004 exception).
        return self.row_hits / self.accesses if self.accesses else 0.0  # repro: allow(ERT004)


class DramModel:
    """Open-page DRAM model counting row hits and page opens per phase."""

    def __init__(self, config: "DramConfig | None" = None) -> None:
        self.config = config or DramConfig()
        self.by_phase: "dict[str, PageStats]" = defaultdict(PageStats)
        self.total = PageStats()
        # Open row per (channel, bank); None means closed/unknown.
        self._open_rows: "dict[tuple[int, int], int]" = {}
        # Next cycle each channel's data bus is free (for latency modelling).
        self._channel_free = [0] * self.config.channels

    # repro: hot -- called by access for every line transfer.
    def _map(self, addr: int) -> "tuple[int, int, int]":
        """Map a byte address to (channel, bank, row).

        Rows are interleaved across channels then banks, the common layout
        that spreads sequential rows over the whole system while keeping a
        row's worth of consecutive bytes in one row buffer.
        """
        cfg = self.config
        row_block = addr // cfg.row_size
        channel = row_block % cfg.channels
        bank = (row_block // cfg.channels) % cfg.banks_per_channel
        row = row_block // (cfg.channels * cfg.banks_per_channel)
        return channel, bank, row

    # repro: hot -- called once per line transfer; stats stay in PageStats.
    def access(self, addr: int, phase: str = "") -> bool:
        """Record an access; return True if it hit the open row."""
        channel, bank, row = self._map(addr)
        key = (channel, bank)
        prev = self._open_rows.get(key)
        hit = prev == row
        self._open_rows[key] = row
        stats = self.by_phase[phase]
        if hit:
            stats.row_hits += 1
            self.total.row_hits += 1
        else:
            stats.page_opens += 1
            self.total.page_opens += 1
            if prev is not None:
                stats.row_conflicts += 1
                self.total.row_conflicts += 1
        return hit

    def access_latency(self, addr: int, now: int, phase: str = "") -> int:
        """Record an access at cycle ``now``; return its completion cycle.

        Combines row-buffer timing with a per-channel bandwidth constraint:
        a channel can start a new line transfer at most every
        ``cycles_per_line`` cycles.
        """
        channel, _, _ = self._map(addr)
        hit = self.access(addr, phase)
        service = self.config.t_hit if hit else self.config.t_miss
        start = max(now, self._channel_free[channel])
        self._channel_free[channel] = start + self.config.cycles_per_line
        return start + service

    def on_access(self, event) -> None:
        """Tracer-sink adapter: feed an :class:`~repro.memsim.trace.Access`."""
        self.access(event.addr, event.phase)

    def publish_metrics(self, prefix: str = "memsim.dram") -> None:
        """Surface row-buffer behaviour as telemetry gauges: totals plus
        per-phase page opens (the paper's Fig 13 breakdown).  Idempotent;
        no-op while telemetry is disabled."""
        from repro import telemetry

        if not telemetry.enabled():
            return
        telemetry.set_gauge(f"{prefix}.row_hits", self.total.row_hits)
        telemetry.set_gauge(f"{prefix}.page_opens", self.total.page_opens)
        telemetry.set_gauge(f"{prefix}.row_conflicts",
                            self.total.row_conflicts)
        telemetry.set_gauge(f"{prefix}.row_hit_rate", self.total.hit_rate)
        for phase, stats in self.by_phase.items():
            label = telemetry.sanitize(phase) or "untagged"
            telemetry.set_gauge(f"{prefix}.page_opens.{label}",
                                stats.page_opens)
