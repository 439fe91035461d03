"""Per-read exemplars: the "which read was slow, and why" layer.

Aggregate metrics (histograms, counters) answer *how much*; when a p99
moves they cannot answer *which reads* moved it.  This module keeps a
small, bounded set of per-read records -- read id, wall time, and the
counter deltas that read produced (seeding rounds, reseed/LEP work, seed
hits, SW cells) -- so a latency
regression comes with named, replayable evidence (`ert-repro explain`).

Two capture policies run side by side in :class:`ExemplarCollector`:

* a **reservoir** (Algorithm R) holding a uniform sample of all reads,
  so the normal population stays visible next to the outliers;
* a **top-K slowest** min-heap (the *slowlog*): the K worst reads are
  always kept, never sampled away -- tail latency is the whole point.

Both are bounded (no per-read growth), both survive the worker boundary:
a worker snapshots its collector per batch and the parent folds it in
through :func:`repro.telemetry.merge_snapshot`, exactly like counters
and histograms.  Reservoir sampling uses a ``random.Random`` seeded at
construction (rule ERT002): given the scheduler's in-order merge, the
merged sample is deterministic at any worker count for a fixed batch
size.

This module owns the per-read clock (``perf_counter_ns``), which is why
it lives inside ``repro.telemetry`` -- rule ERT003 confines raw clock
reads to this package.
"""

from __future__ import annotations

import heapq
import random
import time

#: Reservoir capacity: enough to see the shape of the population
#: without the snapshot dominating the wire cost of a batch result.
DEFAULT_RESERVOIR = 64

#: Slowlog capacity: the always-kept worst offenders.
DEFAULT_TOP_K = 16

#: Fixed reservoir seed (ERT002: no hidden global RNG state).  One
#: constant, not configurable per run: sampling must not become an
#: accidental source of run-to-run diffs.
DEFAULT_SEED = 0x0E57

#: Bucket edges for the ``read.wall_ms`` histogram the collector feeds:
#: sub-millisecond resolution at the head (a read is typically well
#: under 1 ms at test scale), decade ladder up to 10 s.
READ_WALL_MS_EDGES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                      50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
                      10000.0)


class ExemplarCollector:
    """Bounded per-read record capture: reservoir + top-K slowlog.

    Records are plain dicts (JSON-ready)::

        {"read_id": "r17", "task": "seed", "wall_ms": 3.21,
         "counters": {"nodes_visited": 812, "seeds": 9, ...}}

    ``record`` and ``merge`` keep both structures bounded; ``snapshot``
    emits the wire form that :meth:`merge` folds back in on the parent
    side of the worker boundary.
    """

    def __init__(self, reservoir_size: int = DEFAULT_RESERVOIR,
                 top_k: int = DEFAULT_TOP_K,
                 seed: int = DEFAULT_SEED) -> None:
        if reservoir_size < 1 or top_k < 1:
            raise ValueError("reservoir_size and top_k must be >= 1")
        self.reservoir_size = reservoir_size
        self.top_k = top_k
        self.seed = seed
        self.count = 0
        self.reservoir: "list[dict]" = []
        self._offered = 0
        self._rng = random.Random(seed)
        # Min-heap of (wall_ms, insertion_seq, record): the root is the
        # *fastest* of the kept slow reads, i.e. the eviction candidate.
        self._slow: "list[tuple[float, int, dict]]" = []
        self._seq = 0

    # -- capture -------------------------------------------------------

    def start(self) -> int:
        """Begin timing one read; pass the token to :meth:`record`."""
        return time.perf_counter_ns()

    def elapsed_ms(self, started_ns: int) -> float:
        """Wall milliseconds since :meth:`start` returned ``started_ns``.

        Batch drivers use this to apportion one batch-level probe across
        the reads of the batch (the per-lane accumulators supply the
        weights); the raw clock read stays inside ``repro.telemetry``
        per rule ERT003."""
        return (time.perf_counter_ns() - started_ns) / 1e6

    def record(self, read_id: str, started_ns: int,
               counters: "dict[str, int] | None" = None,
               task: str = "seed",
               wall_ms: "float | None" = None,
               kernels: "str | None" = None) -> dict:
        """Close the probe opened by :meth:`start` and capture the
        read's record (returned, whether or not it was sampled).

        ``wall_ms`` overrides the probe-derived wall time -- batch
        drivers pass each read's share of the batch probe.  ``kernels``
        tags the record with the backend that produced it (``"vector"``);
        scalar records omit the field, so ``ert-repro explain`` treats a
        missing tag as scalar."""
        if wall_ms is None:
            wall_ms = self.elapsed_ms(started_ns)
        rec = {"read_id": str(read_id), "task": task,
               "wall_ms": wall_ms,
               "counters": {name: value
                            for name, value in (counters or {}).items()
                            if value}}
        if kernels is not None:
            rec["kernels"] = kernels
        self.count += 1
        self._offer_reservoir(rec)
        self._offer_slow(rec)
        return rec

    def record_batch(self, read_ids: "list[str]",
                     wall_ms: "list[float]",
                     make_counters: "object",
                     task: str = "seed",
                     kernels: "str | None" = None) -> None:
        """Offer a whole batch of reads, materializing a record only for
        the reads that are actually kept.

        Equivalent to calling :meth:`record` once per read -- the
        reservoir RNG, the slowlog heap and the sequence counter advance
        exactly as per-read offers would, so the kept sample is
        bit-identical -- but a read that lands in neither sink costs a
        few integer operations instead of a dict build.  That is what
        keeps vector exemplar capture inside the kernel telemetry
        budget: the batch driver offers every read, yet only ~reservoir
        + slowlog many records are ever constructed.

        ``make_counters(i)`` is called lazily for kept read ``i`` and
        returns its counter dict (zero values are stripped here, like
        :meth:`record`).
        """
        cap = self.reservoir_size
        for i, read_id in enumerate(read_ids):
            self.count += 1
            self._offered += 1
            slot = len(self.reservoir)
            if slot >= cap:
                slot = self._rng.randrange(self._offered)
            wall = wall_ms[i]
            slow = (len(self._slow) < self.top_k
                    or wall > self._slow[0][0])
            if slot >= cap and not slow:
                self._seq += 1
                continue
            rec = {"read_id": str(read_id), "task": task,
                   "wall_ms": wall,
                   "counters": {name: value
                                for name, value in make_counters(i).items()
                                if value}}
            if kernels is not None:
                rec["kernels"] = kernels
            if slot < cap:
                if slot == len(self.reservoir):
                    self.reservoir.append(rec)
                else:
                    self.reservoir[slot] = rec
            if slow:
                entry = (wall, self._seq, rec)
                if len(self._slow) < self.top_k:
                    heapq.heappush(self._slow, entry)
                else:
                    heapq.heapreplace(self._slow, entry)
            self._seq += 1

    def _offer_reservoir(self, rec: dict) -> None:
        """Algorithm R over the stream of offered records.  The RNG is
        consumed once per offer past capacity, so the kept sample is a
        pure function of (seed, offer order) -- deterministic under the
        scheduler's in-order merge."""
        self._offered += 1
        if len(self.reservoir) < self.reservoir_size:
            self.reservoir.append(rec)
            return
        slot = self._rng.randrange(self._offered)
        if slot < self.reservoir_size:
            self.reservoir[slot] = rec

    def _offer_slow(self, rec: dict) -> None:
        entry = (rec["wall_ms"], self._seq, rec)
        self._seq += 1
        if len(self._slow) < self.top_k:
            heapq.heappush(self._slow, entry)
        elif entry[0] > self._slow[0][0]:
            heapq.heapreplace(self._slow, entry)

    # -- views ---------------------------------------------------------

    def slowest(self) -> "list[dict]":
        """The slowlog, worst first (wall time descending; insertion
        order breaks ties so the view is stable)."""
        return [entry[2]
                for entry in sorted(self._slow,
                                    key=lambda e: (-e[0], e[1]))]

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    # -- lifecycle / wire ----------------------------------------------

    def reset(self) -> None:
        """Drop every record and re-seed the reservoir RNG (a reset
        collector replays identically -- workers reset per batch)."""
        self.count = 0
        self.reservoir = []
        self._offered = 0
        self._rng = random.Random(self.seed)
        self._slow = []
        self._seq = 0

    def snapshot(self) -> dict:
        """JSON-ready wire form (what a worker ships per batch)."""
        return {"count": self.count,
                "reservoir": list(self.reservoir),
                "slowest": self.slowest()}

    def merge(self, data: dict) -> None:
        """Fold another collector's :meth:`snapshot` into this one.

        Slowlog entries compete on wall time, so the merged top-K is
        exact.  Reservoir entries are re-offered through Algorithm R,
        which keeps the sample bounded and uniform-ish across workers;
        with in-order merging the result is deterministic.
        """
        self.count += int(data.get("count", 0))
        for rec in data.get("slowest", []):
            self._offer_slow(rec)
        for rec in data.get("reservoir", []):
            self._offer_reservoir(rec)
