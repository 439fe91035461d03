"""Span-based wall-clock tracing with nesting and exclusive time.

A span measures one stage of the pipeline::

    with tracer.span("align"):
        with tracer.span("seed"):
            ...

Spans aggregate by *path*: the example records ``align`` and
``align/seed``.  For every path the tracer keeps call count, total
(inclusive) seconds, exclusive seconds (total minus time spent in child
spans), and min/max per call -- which is exactly what a per-stage profile
table needs, and lets the report verify that children sum consistently
with their parent's wall-clock.

The tracer takes an injectable ``clock`` so tests can drive it
deterministically.  The zero-overhead-when-disabled guarantee is *not*
implemented here: :func:`repro.telemetry.span` returns a shared no-op
context manager when telemetry is off, and this module is only reached
when it is on.
"""

from __future__ import annotations

import time


class SpanStat:
    """Aggregated timings for one span path."""

    __slots__ = ("count", "total_s", "self_s", "min_s", "max_s")

    def __init__(self, count: int = 0, total_s: float = 0.0,
                 self_s: float = 0.0, min_s: float = 0.0,
                 max_s: float = 0.0) -> None:
        self.count = count
        self.total_s = total_s
        self.self_s = self_s
        self.min_s = min_s
        self.max_s = max_s

    def add(self, elapsed: float, child_s: float) -> None:
        if self.count == 0 or elapsed < self.min_s:
            self.min_s = elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed
        self.count += 1
        self.total_s += elapsed
        self.self_s += elapsed - child_s

    def merge(self, data: dict) -> None:
        """Fold another :meth:`as_dict` aggregate for the same path into
        this one (cross-process aggregation for parallel workers)."""
        if data["count"] == 0:
            return
        if self.count == 0 or data["min_s"] < self.min_s:
            self.min_s = data["min_s"]
        if data["max_s"] > self.max_s:
            self.max_s = data["max_s"]
        self.count += data["count"]
        self.total_s += data["total_s"]
        self.self_s += data["self_s"]

    def as_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total_s,
                "self_s": self.self_s, "min_s": self.min_s,
                "max_s": self.max_s}


class _Span:
    """One live span (a context manager tied to its tracer's stack)."""

    __slots__ = ("tracer", "name", "path", "start", "child_s")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.path = name
        self.start = 0.0
        self.child_s = 0.0

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if tracer._stack:
            self.path = f"{tracer._stack[-1].path}/{self.name}"
        tracer._stack.append(self)
        events = tracer.events
        if events is not None and events.recording:
            events.begin(self.name)
        self.start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self.tracer
        elapsed = tracer._clock() - self.start
        events = tracer.events
        if events is not None and events.recording:
            events.end(self.name)
        tracer._stack.pop()
        if tracer._stack:
            tracer._stack[-1].child_s += elapsed
        stat = tracer.stats.get(self.path)
        if stat is None:
            stat = tracer.stats[self.path] = SpanStat()
        stat.add(elapsed, self.child_s)


class Tracer:
    """Aggregating span tracer (see module docstring)."""

    def __init__(self, clock=time.perf_counter, events=None) -> None:
        self.stats: "dict[str, SpanStat]" = {}
        self._stack: "list[_Span]" = []
        self._clock = clock
        #: Optional :class:`repro.telemetry.events.TimelineRecorder`:
        #: when attached and recording, every span also emits timeline
        #: B/E events (the bridge behind ``--trace-out``).  Local tracers
        #: (batch-scoped aggregation) leave this ``None``.
        self.events = events

    def span(self, name: str) -> _Span:
        """Context manager timing one stage; nests under the active span."""
        return _Span(self, name)

    @property
    def is_empty(self) -> bool:
        return not self.stats

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError(
                f"cannot reset the tracer inside an open span "
                f"({self._stack[-1].path!r})")
        self.stats.clear()

    def abandon(self) -> None:
        """Drop all aggregates *and* any open spans without closing them.

        For freshly forked worker processes only: a child forked while
        the parent sat inside an open span inherits that span on the
        stack, and the parent -- not the child -- will close it.
        :meth:`reset`'s open-span guard is correct in-process but would
        make every such worker die in its initializer.
        """
        self._stack.clear()
        self.stats.clear()

    def merge_snapshot(self, data: dict) -> None:
        """Fold a :meth:`snapshot` from another tracer (typically a
        :mod:`repro.parallel` worker process) into the live aggregates,
        path by path."""
        for path, stat_data in data.items():
            stat = self.stats.get(path)
            if stat is None:
                stat = self.stats[path] = SpanStat()
            stat.merge(stat_data)

    def snapshot(self) -> dict:
        """Plain-data copy of the per-path aggregates, sorted by path so
        a parent always precedes its children."""
        return {path: stat.as_dict()
                for path, stat in sorted(self.stats.items())}

