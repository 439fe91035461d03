"""Batch-granularity accumulators for the vector kernels.

The vector path must run fully observed without per-element telemetry:
rule ERT007 keeps ``telemetry.*`` out of hot functions and ERT017 keeps
it out of every loop in ``repro.kernels``.  This module is how both stay
satisfied *by construction* -- the arena engine counts into plain ints,
``seed_batch`` stores them per read in the columns of a
:class:`KernelBatchStats`, and :meth:`KernelBatchStats.flush` lands
everything in the metrics registry exactly once per batch, inside the
driver's single ``kernels.batch`` span.

Two families come out of one accumulator set:

* **batch totals** -- ``kernels.walk_steps``, ``kernels.gather_nodes``,
  ``kernels.gather_bytes`` (the paper's DRAM-traffic metric: leaf-pool
  bytes the gathers touch, 4 per position, cross-linkable to
  ``repro.memsim``),
  ``kernels.reseed_launches`` / ``kernels.last_launches``, plus the
  scalar-parity families
  (``seeding.*``, ``seeds.*``, ``seed.length`` / ``seed.hit_count``)
  so a vector run exposes the same aggregate counters a scalar run
  would;
* **per-read columns** -- :meth:`read_counters` slices the same arrays
  for one read, which is what the scheduler feeds through the exemplar
  capture hooks so the reservoir/slowlog survive ``--kernels vector``.

Accumulation is unconditional (an int add per search, five stores per
read); only the flush consults the telemetry flag, so dark runs pay no
registry traffic and observed runs stay byte-identical to dark ones.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.seeding.algorithm import _STAT_COUNTERS
from repro.telemetry.metrics import DEFAULT_EDGES

#: The default histogram ladder as an ndarray, for pre-bucketing whole
#: seed-attribute columns with one ``searchsorted`` per flush.
_DEFAULT_EDGES = np.asarray(DEFAULT_EDGES, dtype=np.float64)


def _observe_column(name: str, values: "np.ndarray") -> None:
    """Land a whole value column in histogram ``name`` at O(buckets)
    cost: bucket it with ``searchsorted`` (identical semantics to the
    registry's per-value ``bisect_left``) and hand the registry plain
    totals.  The per-value Python loop this replaces was the dominant
    cost of a vector metrics flush."""
    counts = np.bincount(np.searchsorted(_DEFAULT_EDGES, values),
                         minlength=_DEFAULT_EDGES.size + 1).tolist()
    if values.size:
        telemetry.observe_bucketed(name, counts, float(values.sum()),
                                   float(values.min()),
                                   float(values.max()))
    else:
        telemetry.observe_bucketed(name, counts, 0.0, 0.0, 0.0)

#: (counter name, per-read array attribute) -- the columns that surface
#: both as batch totals and as per-read exemplar counters.  Keeping one
#: table guarantees the registry total equals the sum of the per-read
#: values the exemplars carry.
PER_READ_COUNTERS = (
    ("kernels.walk_steps", "walk_steps"),
    ("kernels.gather_nodes", "gather_nodes"),
    ("kernels.gather_bytes", "gather_bytes"),
    ("kernels.reseed_launches", "reseed_launches"),
    ("kernels.last_launches", "last_launches"),
)


def wall_shares(batch_ms: float, work: "object") -> np.ndarray:
    """Apportion one batch-level wall time across the reads of a batch,
    weighted by ``1 + work`` (a per-read work column: ``walk_steps`` for
    a seeding sweep, ``sw_cells`` for the extension of an align batch),
    so heavy reads surface in the slowlog while zero-work reads still
    get a nonzero share; the shares sum to ``batch_ms``."""
    weights = 1.0 + np.asarray(work, dtype=np.float64)
    return batch_ms * weights / float(weights.sum())


class KernelBatchStats:
    """Plain accumulators for one ``seed_batch`` invocation.

    One row per read in the batch (input order); scalars for the
    batch-level quantities.  Nothing here touches the registry -- see
    :meth:`flush`.

    A read's searches do not depend on its batch mates, so every
    column is batch-composition invariant.
    """

    __slots__ = ("n_reads", "walk_steps", "gather_nodes", "gather_bytes",
                 "reseed_launches", "last_launches", "short_reads")

    #: Constant 0: there is no lane set any more.  Only the frozen
    #: ``benchmarks/pipeline/layers.py`` reads these (its
    #: ``kernels.seeding.wave_rounds`` / ``.lane_occupancy_mean`` rows
    #: print 0 until ROADMAP 1(a) drops them).
    wave_rounds = occ_live = occ_slots = 0

    def __init__(self, n_reads: int) -> None:
        self.n_reads = n_reads
        #: Characters consumed by tree-walk advances, per read.
        self.walk_steps = np.zeros(n_reads, dtype=np.int64)
        #: Euler-pool gathers performed (one per located seed), per read.
        self.gather_nodes = np.zeros(n_reads, dtype=np.int64)
        #: Euler-pool bytes those gathers touched, per read (positions
        #: are int32, so bytes = positions * 4).
        self.gather_bytes = np.zeros(n_reads, dtype=np.int64)
        #: Round-2 reseed pivots launched, per read.
        self.reseed_launches = np.zeros(n_reads, dtype=np.int64)
        #: Round-3 LAST walks launched, per read.
        self.last_launches = np.zeros(n_reads, dtype=np.int64)
        #: Reads skipped for length (scalar parity:
        #: ``seeding.short_reads_skipped``).
        self.short_reads = 0

    # -- per-read views ------------------------------------------------

    def read_counters(self, i: int) -> "dict[str, int]":
        """The kernel counter column for read ``i`` (exemplar payload)."""
        return {name: int(getattr(self, attr)[i])
                for name, attr in PER_READ_COUNTERS}

    # -- the one registry touch per batch ------------------------------

    def flush(self, engine_stats_before: "dict[str, int]",
              engine_stats_after: "dict[str, int]",
              results: "list") -> None:
        """Land the whole batch in the metrics registry (no-op dark).

        Emits the kernel families and the scalar-parity families, so a
        vector run and a scalar run of the same reads produce identical
        counter totals (spans aside) and the CI assertions on
        ``seeding.reads`` hold in either mode.
        """
        if not telemetry.enabled():
            return
        counters = {"kernels.batches": 1, "kernels.reads": self.n_reads}
        for name, attr in PER_READ_COUNTERS:
            counters[name] = int(getattr(self, attr).sum())
        telemetry.add_counters(counters)
        # Scalar-parity families: what the per-read scalar driver
        # (repro.seeding.algorithm.seed_read) would have emitted.
        telemetry.add_counters(
            {_STAT_COUNTERS.get(name, f"seeding.{name}"):
             engine_stats_after[name] - engine_stats_before.get(name, 0)
             for name in engine_stats_after})
        telemetry.count("seeding.reads", self.n_reads)
        if self.short_reads:
            telemetry.count("seeding.short_reads_skipped", self.short_reads)
        all_seeds = [seed for result in results
                     for seed in result.all_seeds]
        n_seeds = len(all_seeds)
        telemetry.count("seeds.emitted", n_seeds)
        _observe_column("seed.length", np.fromiter(
            (seed.length for seed in all_seeds), np.float64, n_seeds))
        _observe_column("seed.hit_count", np.fromiter(
            (seed.hit_count for seed in all_seeds), np.float64, n_seeds))
