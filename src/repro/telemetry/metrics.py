"""Process-wide metrics: counters, gauges, and bucketed histograms.

The registry is deliberately dependency-free and single-threaded (like the
rest of the reproduction): a metric is created on first use and lives until
:meth:`MetricsRegistry.reset`.  Three metric kinds cover everything the
paper's figures need:

* :class:`Counter` -- monotonically increasing totals (walk steps, leaf
  gathers, truncated hit lists, DRAM page opens...);
* :class:`Gauge` -- last-written values (index bytes, simulated cycles);
* :class:`Histogram` -- bucketed distributions (seed lengths, hit counts,
  extension window sizes) with fixed, explicit bucket edges.

Metric names are dot-separated paths, ``<subsystem>.<noun>[.<qualifier>]``
(see ``docs/observability.md`` for the conventions).  Nothing in this
module consults the global telemetry enable flag -- that guard lives in
:mod:`repro.telemetry` so the registry itself stays testable in isolation.
"""

from __future__ import annotations

from bisect import bisect_left


#: Default histogram bucket edges: a 1-2.5-5 decade ladder that resolves
#: both read-scale quantities (seed lengths) and hit-count tails.
DEFAULT_EDGES = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
                 10000)


class Counter:
    """A monotonically increasing integer total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a gauge")
        self.value += n


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A bucketed distribution with explicit, ascending edges.

    A value ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge``; values above the last edge land in the implicit
    overflow bucket, so ``len(counts) == len(edges) + 1``.
    """

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges: "tuple[float, ...] | None" = None) -> None:
        edges = tuple(edges) if edges is not None else DEFAULT_EDGES
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly ascending")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: "object") -> None:
        """Observe every value in ``values`` (any iterable of numbers):
        how ``record_reads`` lands a batch's per-read wall times."""
        for value in values:
            self.observe(float(value))

    def observe_bucketed(self, counts: "list[int]", total: float,
                         lo: float, hi: float) -> None:
        """Fold pre-bucketed observations in: ``counts[i]`` observations
        landed in bucket ``i`` of this ladder, summing to ``total`` with
        extremes ``lo``/``hi``.

        This is the batch-flush fast path for numpy-native producers
        (the vector kernels): they bucket a whole accumulator column
        with ``searchsorted`` -- the same ``bisect_left`` semantics as
        :meth:`observe` -- and hand plain lists here, so the registry
        pays O(buckets) per batch instead of O(values) while this
        module stays dependency-free."""
        if len(counts) != len(self.counts):
            raise ValueError(
                f"bucketed counts length {len(counts)} does not match "
                f"this histogram's {len(self.counts)} buckets")
        observed = 0
        for i, c in enumerate(counts):
            if c:
                self.counts[i] += c
                observed += c
        if not observed:
            return
        self.count += observed
        self.total += total
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, data: dict) -> None:
        """Fold another histogram's :meth:`as_dict` snapshot into this
        one.  Bucket edges must match -- merging is only meaningful when
        both sides observed into the same ladder."""
        if tuple(data["edges"]) != self.edges:
            raise ValueError(
                f"cannot merge histograms with different bucket edges: "
                f"{tuple(data['edges'])} vs {self.edges}")
        for i, c in enumerate(data["counts"]):
            self.counts[i] += c
        self.count += data["count"]
        self.total += data["total"]
        other_min, other_max = data["min"], data["max"]
        if other_min is not None and (self.min is None
                                      or other_min < self.min):
            self.min = other_min
        if other_max is not None and (self.max is None
                                      or other_max > self.max):
            self.max = other_max

    def as_dict(self) -> dict:
        """The buckets and extremes; percentiles are derived from these
        wherever they are shown (:func:`bucket_percentile`)."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


def bucket_percentile(edges, counts, count, lo, hi, q) -> "float | None":
    """Quantile estimate from bucketed data by linear interpolation.

    The bucket holding the target rank ``q * count`` is located by
    cumulative count; the estimate interpolates linearly between that
    bucket's bounds.  Bounds are tightened with the *observed* extremes:
    the first bucket's lower bound is the recorded ``min`` (its edge
    would otherwise be unbounded below) and the overflow bucket's upper
    bound is the recorded ``max``.  Exact within a bucket only when
    values are uniform inside it -- the standard histogram-quantile
    trade-off (same scheme as Prometheus's ``histogram_quantile``).

    Returns ``None`` for an empty histogram; ``q`` outside ``(0, 1]``
    raises.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile q must be in (0, 1], got {q}")
    if not count:
        return None
    target = q * count
    cumulative = 0.0
    for i, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if i == 0:
                lower = lo if lo is not None else edges[0]
            else:
                lower = edges[i - 1]
            if i < len(edges):
                upper = edges[i]
            else:
                upper = hi if hi is not None else edges[-1]
            if hi is not None:
                upper = min(upper, hi)
            if upper <= lower:
                return float(lower)
            fraction = (target - cumulative) / bucket_count
            return float(lower + fraction * (upper - lower))
        cumulative += bucket_count
    return float(hi) if hi is not None else float(edges[-1])


class MetricsRegistry:
    """Name -> metric map with create-on-first-use accessors."""

    def __init__(self) -> None:
        self.counters: "dict[str, Counter]" = {}
        self.gauges: "dict[str, Gauge]" = {}
        self.histograms: "dict[str, Histogram]" = {}

    # -- accessors -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str,
                  edges: "tuple[float, ...] | None" = None) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(edges)
        return metric

    # -- bulk operations -----------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def merge_snapshot(self, data: dict) -> None:
        """Fold a :meth:`snapshot` -- typically produced in another
        process by a :mod:`repro.parallel` worker -- into the live
        metrics: counters add, histograms merge bucket-wise, gauges are
        last-write-wins (no pool worker sets one: gauges come from the
        in-process model runs)."""
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist in data.get("histograms", {}).items():
            self.histogram(name, tuple(hist["edges"])).merge(hist)

    def snapshot(self) -> dict:
        """Plain-data copy of every metric (JSON-serializable)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self.histograms.items())},
        }


def sanitize(label: str) -> str:
    """Turn a free-form label ("BWA-MEM2 (FMD)") into a metric-name
    segment: lowercase, with runs of non-alphanumerics collapsed to ``-``."""
    out = []
    last_dash = True
    for ch in label.lower():
        if ch.isalnum():
            out.append(ch)
            last_dash = False
        elif not last_dash:
            out.append("-")
            last_dash = True
    return "".join(out).strip("-")
