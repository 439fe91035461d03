"""In-memory span tracer for the traced run.

One span per call into a layer (name = the layer's module), recorded
from the benchmark's own files; spans stay in memory until
:meth:`Tracer.to_json`.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so self times add up to the
root span exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.index = len(tracer.records)
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer._stack.append(self.index)
        tracer.records.append([self.name, parent, time.perf_counter(), 0.0])
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self.tracer
        tracer.records[self.index][3] = time.perf_counter()
        tracer._stack.pop()


class Tracer:
    """Spans of one traced pass over one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: ``[name, parent index (-1 = root), start, end]`` per span.
        self.records: "list[list]" = []
        self._stack: "list[int]" = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(end - start for span_name, _parent, start, end
                   in self.records if span_name == name)

    def count(self, name: str) -> int:
        return sum(1 for record in self.records if record[0] == name)

    def self_times(self) -> "dict[str, float]":
        """Per span name: duration minus children's duration."""
        out: "dict[str, float]" = defaultdict(float)
        for name, parent, start, end in self.records:
            out[name] += end - start
            if parent >= 0:
                out[self.records[parent][0]] -= end - start
        return dict(out)

    def root_total(self) -> float:
        return sum(end - start for _name, parent, start, end
                   in self.records if parent < 0)

    def to_json(self) -> "dict[str, object]":
        epoch = self.records[0][2] if self.records else 0.0
        return {
            "workload": self.workload,
            "self_s": self.self_times(),
            "spans": [{"id": i, "name": name, "parent": parent,
                       "start_s": start - epoch, "end_s": end - epoch,
                       "workload": self.workload}
                      for i, (name, parent, start, end)
                      in enumerate(self.records)],
        }
