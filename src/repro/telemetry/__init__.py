"""Lightweight observability for the seeding/alignment stack.

The paper's whole argument is quantitative -- bytes per read, page opens,
cycles per seeding round -- so this package gives every subsystem one
process-wide place to put numbers:

* a metrics registry (:mod:`repro.telemetry.metrics`): counters, gauges,
  bucketed histograms;
* a span tracer (:mod:`repro.telemetry.spans`): nested wall-clock stage
  timings with exclusive-time accounting;
* exporters (:mod:`repro.telemetry.export`): JSON snapshots and the
  human-readable per-stage profile.

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

from bisect import bisect_left

from repro.telemetry.events import TimelineRecorder, trace_document
from repro.telemetry.exemplars import (
    READ_WALL_MS_EDGES,
    ExemplarCollector,
)
from repro.telemetry.export import (
    load_snapshot,
    render_profile,
    render_slowlog,
    render_spans,
    write_json,
    write_trace,
)
from repro.telemetry.openmetrics import parse_openmetrics, render_openmetrics
from repro.telemetry.metrics import (
    DEFAULT_EDGES,
    FRACTION_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_percentile,
    sanitize,
)
from repro.telemetry.spans import NoopSpan, SpanStat, Tracer

__all__ = [
    "Counter",
    "DEFAULT_EDGES",
    "ExemplarCollector",
    "FRACTION_EDGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopSpan",
    "READ_WALL_MS_EDGES",
    "SpanStat",
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
    "observe_many",
    "parse_openmetrics",
    "probe_ms",
    "read_probe",
    "record_read",
    "record_reads",
    "recorder",
    "recording",
    "registry",
    "render_openmetrics",
    "render_profile",
    "render_slowlog",
    "render_spans",
    "reset",
    "sanitize",
    "set_gauge",
    "snapshot",
    "span",
    "start_recording",
    "stop_recording",
    "trace_document",
    "trace_events",
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
_NOOP_SPAN = NoopSpan()


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


def trace_events() -> "list[dict]":
    """Chrome ``trace_event`` dicts for everything recorded (own ring
    plus absorbed worker tracks)."""
    return current_trace()["traceEvents"]


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


def observe_many(name: str, values: "object",
                 edges: "tuple[float, ...] | None" = None) -> None:
    """Record every value of an iterable into histogram ``name`` in one
    call -- the batch-flush path for per-lane accumulator columns (the
    vector kernels hand whole ndarrays here at span boundaries)."""
    if _enabled:
        _registry.histogram(name, edges).observe_many(values)


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
    :func:`record_read`, or ``None`` while telemetry is disabled (the
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


def record_read(token: "int | None", read_id: str,
                counters: "dict[str, int] | None" = None,
                task: str = "seed",
                wall_ms: "float | None" = None,
                kernels: "str | None" = None) -> "dict | None":
    """Close a :func:`read_probe`: capture the read's exemplar record
    (reservoir + slowlog), observe its wall time into the
    ``read.wall_ms`` histogram, and pin the record to that histogram
    bucket as an OpenMetrics exemplar.  Returns the record, or ``None``
    when the probe was disabled.

    ``wall_ms`` overrides the probe-derived wall time (a batch driver
    records many reads against one probe, passing each read's share);
    ``kernels`` tags the record with the backend (``"vector"``) so
    ``ert-repro explain`` replays it through the same path."""
    if token is None or not _enabled:
        return None
    rec = _exemplars.record(read_id, token, counters, task=task,
                            wall_ms=wall_ms, kernels=kernels)
    hist = _registry.histogram("read.wall_ms", READ_WALL_MS_EDGES)
    hist.observe(rec["wall_ms"])
    hist.attach_exemplar(rec["wall_ms"], {"read_id": rec["read_id"]})
    return rec


def record_reads(token: "int | None", read_ids: "list[str]",
                 wall_ms: "list[float]", make_counters: "object",
                 task: str = "seed",
                 kernels: "str | None" = None) -> None:
    """Batch form of :func:`record_read`, what the scheduler's batch
    runner calls: one call captures exemplars for a whole batch against
    one probe.

    Produces exactly the state per-read :func:`record_read` calls
    would -- same reservoir membership (the RNG advances once per
    offer), same slowlog, same ``read.wall_ms`` histogram and bucket
    exemplars (latest read per bucket wins) -- but record dicts are
    only materialized for kept reads, and ``make_counters(i)`` is only
    invoked for those, which is what holds observed-vector overhead to
    the kernel telemetry budget."""
    if token is None or not _enabled:
        return
    _exemplars.record_batch(read_ids, wall_ms, make_counters,
                            task=task, kernels=kernels)
    hist = _registry.histogram("read.wall_ms", READ_WALL_MS_EDGES)
    hist.observe_many(wall_ms)
    last_per_bucket: "dict[int, int]" = {}
    edges = hist.edges
    for i, wall in enumerate(wall_ms):
        last_per_bucket[bisect_left(edges, wall)] = i
    for i in last_per_bucket.values():
        hist.attach_exemplar(wall_ms[i], {"read_id": read_ids[i]})


def snapshot() -> dict:
    """Plain-data copy of everything recorded so far (JSON-ready)."""
    data = _registry.snapshot()
    data["spans"] = _tracer.snapshot()
    if not _exemplars.is_empty:
        data["exemplars"] = _exemplars.snapshot()
    return data


def merge_snapshot(data: dict, order: "int | None" = None) -> None:
    """Fold a snapshot produced elsewhere -- typically by a
    :mod:`repro.parallel` worker process -- into the live registry and
    tracer: counters and histograms add, span aggregates merge per path,
    gauges resolve by ``order`` (the snapshot's batch submission index;
    highest order wins, so merged gauges are deterministic under
    out-of-order worker completion) or last-write-wins when ``order`` is
    omitted.  Timeline tracks (the ``"timeline"`` key a worker's
    :func:`drain_timeline` attaches) are absorbed whenever recording is
    on, even if metrics are disabled.  Otherwise a no-op while telemetry
    is disabled, so schedulers can call it unconditionally."""
    if _recorder.recording:
        _recorder.absorb(data.get("timeline"))
    if not _enabled:
        return
    _registry.merge_snapshot(data, order=order)
    _tracer.merge_snapshot(data.get("spans", {}))
    worker_exemplars = data.get("exemplars")
    if worker_exemplars:
        _exemplars.merge(worker_exemplars)
