"""Per-read memory-traffic measurement (paper Figs 1a and 12).

``measure_traffic`` runs a batch of reads through any engine with a
tracer attached and reports requests and bytes per read, broken down by
phase -- exactly the quantities behind "each read requires ~68.5 KB of
index data" (FMD, §I) and "15.1 KB" (ERT-KR, §VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memsim.trace import MemoryTracer
from repro.seeding.algorithm import SeedingParams, seed_read


@dataclass
class TrafficProfile:
    """Requests/bytes per read for one configuration."""

    name: str
    reads: int
    requests_total: int
    bytes_total: int
    by_phase: "dict[str, tuple[int, int]]" = field(default_factory=dict)

    @property
    def requests_per_read(self) -> float:
        return self.requests_total / self.reads if self.reads else 0.0

    @property
    def bytes_per_read(self) -> float:
        return self.bytes_total / self.reads if self.reads else 0.0

    @property
    def kb_per_read(self) -> float:
        return self.bytes_per_read / 1024.0


def _attach(engine):
    """Find the index object carrying the tracer attachment point."""
    index = getattr(engine, "index", None)
    if index is None or not hasattr(index, "attach_tracer"):
        raise TypeError(
            f"engine {engine.name!r} has no traceable index")
    return index


def measure_traffic(engine, reads, params: "SeedingParams | None" = None,
                    name: "str | None" = None,
                    driver=None) -> TrafficProfile:
    """Seed ``reads`` and return the traffic profile.

    With ``driver`` given (a :class:`~repro.core.reuse.KmerReuseDriver`),
    the batch goes through the three-phase reuse pipeline instead of
    per-read seeding.
    """
    params = params or SeedingParams()
    index = _attach(engine if driver is None else driver.engine)
    tracer = MemoryTracer()
    index.attach_tracer(tracer)
    try:
        if driver is not None:
            driver.seed_batch(list(reads))
        else:
            for read in reads:
                seed_read(engine, read, params)
    finally:
        index.attach_tracer(None)
    by_phase = {phase: (stats.requests, stats.bytes)
                for phase, stats in sorted(tracer.by_phase.items())}
    profile = TrafficProfile(
        name=name or engine.name,
        reads=len(reads),
        requests_total=tracer.total_requests,
        bytes_total=tracer.total_bytes,
        by_phase=by_phase,
    )
    _publish_metrics(profile)
    return profile


def _publish_metrics(profile: TrafficProfile) -> None:
    """Surface one configuration's traffic profile as telemetry gauges
    under ``traffic.<config>.*`` (no-op while telemetry is disabled)."""
    from repro import telemetry

    if not telemetry.enabled():
        return
    prefix = f"traffic.{telemetry.sanitize(profile.name)}"
    telemetry.set_gauge(f"{prefix}.requests_per_read",
                        profile.requests_per_read)
    telemetry.set_gauge(f"{prefix}.bytes_per_read", profile.bytes_per_read)
    for phase, (requests, nbytes) in profile.by_phase.items():
        label = telemetry.sanitize(phase) or "untagged"
        telemetry.set_gauge(f"{prefix}.{label}.requests", requests)
        telemetry.set_gauge(f"{prefix}.{label}.bytes", nbytes)
