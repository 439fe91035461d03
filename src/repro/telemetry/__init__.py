"""Lightweight observability for the seeding/alignment stack.

The paper's whole argument is quantitative -- bytes per read, page opens,
cycles per seeding round -- so this package gives every subsystem one
process-wide place to put numbers:

* a metrics registry (:mod:`repro.telemetry.metrics`): counters, gauges,
  bucketed histograms;
* a span tracer (:mod:`repro.telemetry.spans`): nested wall-clock stage
  timings with exclusive-time accounting;
* per-read exemplars (:mod:`repro.telemetry.exemplars`) and a timeline
  recorder (:mod:`repro.telemetry.events`), behind ``--slowlog`` /
  ``explain`` and ``--trace-out``;
* exporters (:mod:`repro.telemetry.export`): JSON snapshots and traces,
  and the human-readable per-stage profile -- the only ways out.

**Telemetry is off by default** and everything routes through one
module-level flag.  While disabled, :func:`span` returns a shared no-op
context manager and every recording helper returns after a single flag
check, so instrumented code pays (and the overhead benchmark enforces)
essentially nothing.  Hot inner loops additionally avoid per-event calls
altogether: engines keep counting into their existing stats structs and
the per-read drivers *flush deltas* into the registry only when telemetry
is enabled.

Typical use::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("align"):
        aligner.align(read)
    print(telemetry.render_profile(telemetry.snapshot()))
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.telemetry.events import TimelineRecorder, trace_document
from repro.telemetry.exemplars import (
    READ_WALL_MS_EDGES,
    ExemplarCollector,
)
from repro.telemetry.metrics import (
    DEFAULT_EDGES,
    FRACTION_EDGES,
    Histogram,
    MetricsRegistry,
    bucket_percentile,
    sanitize,
)
from repro.telemetry.spans import Tracer

if TYPE_CHECKING:
    from repro.telemetry.export import (
        load_snapshot,
        render_profile,
        write_json,
        write_trace,
    )

# The exporters (and the ``json`` they need) load when one is first
# called: a dark run, and every pool worker, never writes a report.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.telemetry.export": ("load_snapshot", "render_profile",
                               "write_json", "write_trace"),
})

__all__ = [
    "DEFAULT_EDGES",
    "ExemplarCollector",
    "FRACTION_EDGES",
    "Histogram",
    "MetricsRegistry",
    "READ_WALL_MS_EDGES",
    "TimelineRecorder",
    "Tracer",
    "add_counters",
    "bucket_percentile",
    "count",
    "current_trace",
    "disable",
    "drain_timeline",
    "enable",
    "enabled",
    "exemplars",
    "instant",
    "load_snapshot",
    "merge_snapshot",
    "observe",
    "observe_bucketed",
    "probe_ms",
    "read_probe",
    "record_reads",
    "recorder",
    "recording",
    "registry",
    "render_profile",
    "reset",
    "sanitize",
    "set_gauge",
    "snapshot",
    "span",
    "start_recording",
    "stop_recording",
    "trace_document",
    "tracer",
    "write_json",
    "write_trace",
]


#: The single switch everything checks.  Not exported mutable state --
#: flip it through :func:`enable` / :func:`disable` only.
_enabled = False

_registry = MetricsRegistry()
_recorder = TimelineRecorder()
#: The global tracer carries the timeline bridge: when recording is on,
#: every span also lands B/E events in the recorder.
_tracer = Tracer(events=_recorder)
_exemplars = ExemplarCollector()
#: Handed out for every ``span()`` call while telemetry is off, so the
#: disabled cost is one flag check and two empty calls.
_NOOP_SPAN = nullcontext()


def enable() -> None:
    """Turn telemetry on (it starts off)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn telemetry off; recorded data is kept until :func:`reset`."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (always live, even when
    telemetry is disabled -- recording helpers are what check the flag)."""
    return _registry


def tracer() -> Tracer:
    """The process-wide span tracer."""
    return _tracer


def exemplars() -> ExemplarCollector:
    """The process-wide per-read exemplar collector (reservoir sample
    plus top-K slowlog; see :mod:`repro.telemetry.exemplars`)."""
    return _exemplars


def reset() -> None:
    """Drop all recorded metrics, span aggregates and exemplars."""
    _registry.reset()
    _tracer.reset()
    _exemplars.reset()


def fork_reset() -> None:
    """Reset for a freshly forked worker process: drop every inherited
    metric and abandon any span the parent had open at fork time (the
    parent closes those spans in its own process; in the child they
    could never close, and :func:`reset` would refuse to run).  The
    timeline recorder is re-homed to the child pid; the pool
    initializer restarts it on the parent's epoch when capture is on."""
    _registry.reset()
    _tracer.abandon()
    _exemplars.reset()
    _recorder.fork_reset()


# ----------------------------------------------------------------------
# Timeline recording (the event stream behind ``--trace-out``)
# ----------------------------------------------------------------------
#
# Recording has its own switch, independent of the metrics flag: metrics
# answer "how much", the timeline answers "when", and either is useful
# alone.  :func:`reset` deliberately leaves the recorder untouched --
# worker processes reset metrics per batch while their timeline keeps
# accumulating until drained (see repro.parallel.scheduler._run_batch).


def recorder() -> TimelineRecorder:
    """The process-wide timeline event recorder."""
    return _recorder


def start_recording(epoch_ns: "int | None" = None) -> int:
    """Clear the timeline and start recording events.  Pass another
    recorder's epoch to align this process's events with its timeline
    (what pool workers do); the default anchors the trace at *now*.
    Returns the epoch in use."""
    return _recorder.start(epoch_ns)


def stop_recording() -> None:
    """Stop recording; buffered events stay available for export."""
    _recorder.stop()


def recording() -> bool:
    return _recorder.recording


def instant(name: str, arg: "object | None" = None) -> None:
    """Record a point-in-time event (a no-op unless recording)."""
    _recorder.instant(name, arg)


def drain_timeline() -> "dict | None":
    """Drain the local event ring as a JSON-able track (what a worker
    ships back per batch), or ``None`` when not recording."""
    if not _recorder.recording:
        return None
    return _recorder.drain_track()


def current_trace() -> dict:
    """The full Chrome/Perfetto trace JSON object for everything
    recorded so far (own ring plus absorbed worker tracks); pass it to
    :func:`write_trace`."""
    return trace_document(_recorder.tracks(), _recorder.epoch_ns)


# ----------------------------------------------------------------------
# Recording helpers -- each is a no-op after one flag check when disabled.
# ----------------------------------------------------------------------


def span(name: str):
    """Time a stage: ``with telemetry.span("align"): ...``.  Returns a
    shared do-nothing context manager while telemetry is disabled."""
    if not _enabled:
        return _NOOP_SPAN
    return _tracer.span(name)


def count(name: str, n: int = 1) -> None:
    """Increment counter ``name`` by ``n``."""
    if _enabled:
        _registry.counter(name).inc(n)


def add_counters(values: "dict[str, int]", prefix: str = "") -> None:
    """Bulk-increment counters, skipping zero deltas.  This is the flush
    path for engine/stat structs: hot loops keep counting into plain
    attributes and drivers publish the per-read delta here."""
    if not _enabled:
        return
    for name, value in values.items():
        if value:
            _registry.counter(prefix + name).inc(value)


def set_gauge(name: str, value: float) -> None:
    if _enabled:
        _registry.gauge(name).set(value)


def observe(name: str, value: float,
            edges: "tuple[float, ...] | None" = None) -> None:
    """Record ``value`` into histogram ``name`` (bucket edges fixed at
    first use)."""
    if _enabled:
        _registry.histogram(name, edges).observe(value)


def observe_bucketed(name: str, counts: "list[int]", total: float,
                     lo: float, hi: float,
                     edges: "tuple[float, ...] | None" = None) -> None:
    """Fold pre-bucketed observations into histogram ``name`` -- the
    batch-flush fast path for producers that bucket whole accumulator
    columns themselves (see :meth:`Histogram.observe_bucketed`)."""
    if _enabled:
        _registry.histogram(name, edges).observe_bucketed(counts, total,
                                                          lo, hi)


def read_probe() -> "int | None":
    """Open a per-read exemplar probe: returns a clock token to pass to
    :func:`record_reads`, or ``None`` while telemetry is disabled (the
    disabled path costs one flag check; callers skip their counter
    bookkeeping entirely on ``None``)."""
    if not _enabled:
        return None
    return _exemplars.start()


def probe_ms(token: "int | None") -> float:
    """Wall milliseconds elapsed on a :func:`read_probe` token (``0.0``
    for a disabled probe).  Batch drivers read the probe once and split
    the time across the batch's reads via the per-lane accumulators --
    the raw clock stays confined to ``repro.telemetry`` (ERT003)."""
    if token is None:
        return 0.0
    return _exemplars.elapsed_ms(token)


def record_reads(token: "int | None", read_ids: "list[str]",
                 wall_ms: "list[float]", make_counters: "object",
                 task: str = "seed",
                 kernels: "str | None" = None) -> None:
    """Close a :func:`read_probe` for a whole batch -- the one exemplar
    capture entry point, called by the scheduler's batch runner: offer
    every read (``wall_ms[i]`` its share of the probe) to the reservoir
    and the slowlog and observe its wall time into ``read.wall_ms``.
    ``kernels`` tags the records with the backend (``"vector"``) so
    ``ert-repro explain`` replays them through the same path.

    Leaves exactly the state one :meth:`ExemplarCollector.record` per
    read would, but builds a record -- and calls ``make_counters(i)`` --
    only for kept reads, which is what holds observed-vector overhead
    to the kernel telemetry budget."""
    if token is None or not _enabled:
        return
    _exemplars.record_batch(read_ids, wall_ms, make_counters,
                            task=task, kernels=kernels)
    _registry.histogram("read.wall_ms",
                        READ_WALL_MS_EDGES).observe_many(wall_ms)


def snapshot() -> dict:
    """Plain-data copy of everything recorded so far (JSON-ready)."""
    data = _registry.snapshot()
    data["spans"] = _tracer.snapshot()
    if not _exemplars.is_empty:
        data["exemplars"] = _exemplars.snapshot()
    return data


def merge_snapshot(data: dict) -> None:
    """Fold a snapshot produced elsewhere -- typically by a
    :mod:`repro.parallel` worker process -- into the live registry and
    tracer: counters and histograms add, span aggregates merge per path,
    exemplars re-offer, gauges are last-write-wins (an in-process kind:
    no pool worker sets one).  Timeline tracks (the ``"timeline"`` key
    a worker's :func:`drain_timeline` attaches) are absorbed whenever
    recording is on, even if metrics are disabled.  Otherwise a no-op
    while telemetry is disabled, so schedulers can call it
    unconditionally."""
    if _recorder.recording:
        _recorder.absorb(data.get("timeline"))
    if not _enabled:
        return
    _registry.merge_snapshot(data)
    _tracer.merge_snapshot(data.get("spans", {}))
    worker_exemplars = data.get("exemplars")
    if worker_exemplars:
        _exemplars.merge(worker_exemplars)
