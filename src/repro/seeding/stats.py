"""Batch-granularity accumulators for seeding.

Seeding must run fully observed without per-element telemetry: rule
ERT007 keeps ``telemetry.*`` out of hot functions and ERT017 keeps it
out of every loop of the seeding driver, the kernels, the walk and the
engine.  This module is how both stay satisfied *by construction* --
the engine counts into plain ints,
:func:`~repro.seeding.algorithm.seed_batch` stores them per read in the
columns of a :class:`KernelBatchStats`, and
:meth:`KernelBatchStats.flush` lands everything in the metrics registry
exactly once per call, inside the driver's single ``kernels.batch``
span.

Two families come out of one accumulator set:

* **batch totals** -- ``kernels.walk_steps``, ``kernels.gather_nodes``,
  ``kernels.gather_bytes`` (the paper's DRAM-traffic metric: leaf-pool
  bytes the gathers touch, 4 per position, cross-linkable to
  ``repro.memsim``),
  ``kernels.reseed_launches`` / ``kernels.last_launches``, plus the
  engine-stat deltas and seed families (``seeding.*``, ``seeds.*``,
  ``seed.length`` / ``seed.hit_count``), so a batch exposes the same
  aggregate counters as its reads seeded one by one;
* **per-read columns** -- :meth:`read_counters` slices the same arrays
  for one read, which is what the scheduler feeds through the exemplar
  capture hooks (the reservoir and the slowlog).

The five stores per read happen only into a :class:`KernelBatchStats`
that exists: an observed driver makes one, a dark run builds none (the
scheduler passes none while ``telemetry.read_probe()`` is ``None``); the
driver flushes only with telemetry on, so dark runs pay no registry
traffic and observed runs stay byte-identical to dark ones.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro import telemetry
from repro.telemetry.metrics import DEFAULT_EDGES

#: How engine work counters surface as telemetry counter names.  Most map
#: mechanically under ``seeding.``; the gather-limit clip gets the
#: user-facing name the CLI and docs advertise.
_STAT_COUNTERS = {"truncated_hit_lists": "seeds.truncated"}

#: The default histogram ladder as an ndarray, for pre-bucketing whole
#: seed-attribute columns with one ``searchsorted`` per flush.
_DEFAULT_EDGES = np.asarray(DEFAULT_EDGES, dtype=np.float64)


def observe_column(name: str, values: "np.ndarray") -> None:
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
    """Plain accumulators for one ``seed_batch`` call.

    One row per read in the batch (input order); scalars for the
    batch-level quantities.  Nothing here touches the registry -- see
    :meth:`flush`.

    A read's searches do not depend on its batch mates, so every
    column is batch-composition invariant.
    """

    __slots__ = ("n_reads", "columns", "walk_steps", "gather_nodes",
                 "gather_bytes", "reseed_launches", "last_launches",
                 "short_reads")

    #: Constant 0: there is no lane set any more.  Only the frozen
    #: ``benchmarks/pipeline/layers.py`` reads these (its
    #: ``kernels.seeding.wave_rounds`` / ``.lane_occupancy_mean`` rows
    #: print 0 until ROADMAP 1(a) drops them).
    wave_rounds = occ_live = occ_slots = 0

    def __init__(self, n_reads: int) -> None:
        self.n_reads = n_reads
        #: The per-read columns below are the rows of this one array,
        #: in :data:`PER_READ_COUNTERS` order, so a flush sums them all
        #: in one reduction.
        self.columns = np.zeros((len(PER_READ_COUNTERS), n_reads),
                                dtype=np.int64)
        #: Characters consumed by tree-walk advances, per read.
        self.walk_steps = self.columns[0]
        #: Euler-pool gathers performed (one per located seed), per read.
        self.gather_nodes = self.columns[1]
        #: Euler-pool bytes those gathers touched, per read (positions
        #: are int32, so bytes = positions * 4).
        self.gather_bytes = self.columns[2]
        #: Round-2 reseed pivots launched, per read.
        self.reseed_launches = self.columns[3]
        #: Round-3 LAST walks launched, per read.
        self.last_launches = self.columns[4]
        #: Reads skipped for length (``seeding.short_reads_skipped``).
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
        """Land the whole batch in the metrics registry (called only
        with telemetry on).

        Emits the kernel families, the engine-stat deltas and the seed
        families, so a batch and its reads seeded one by one produce
        identical counter totals (``kernels.batches`` and spans aside).
        """
        counters = {"kernels.batches": 1, "kernels.reads": self.n_reads}
        counters.update(zip((name for name, _ in PER_READ_COUNTERS),
                            self.columns.sum(axis=1).tolist()))
        telemetry.add_counters(counters)
        telemetry.add_counters(
            {_STAT_COUNTERS.get(name, f"seeding.{name}"):
             engine_stats_after[name] - engine_stats_before.get(name, 0)
             for name in engine_stats_after})
        telemetry.count("seeding.reads", self.n_reads)
        if self.short_reads:
            telemetry.count("seeding.short_reads_skipped", self.short_reads)
        # Each read's seeds deduplicated by (start, length), as its
        # ``all_seeds`` would give them, with no Python call per read.
        hit_counts: "dict[tuple[int, int, int], int]" = {}
        for i, result in enumerate(results):
            for start, length, _, count in chain(
                    result.smems, result.reseed_seeds, result.last_seeds):
                hit_counts.setdefault((i, start, length), count)
        n_seeds = len(hit_counts)
        telemetry.count("seeds.emitted", n_seeds)
        keys = np.array(list(hit_counts), dtype=np.float64).reshape(-1, 3)
        observe_column("seed.length", keys[:, 2])
        observe_column("seed.hit_count", np.fromiter(
            hit_counts.values(), np.float64, n_seeds))
