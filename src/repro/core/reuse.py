"""K-mer reuse: the three-phase batched seeding pipeline (§III-C, Fig 6).

Forward and backward search phases are decoupled across a *batch* of reads
to expose the temporal locality that per-read processing destroys:

* **Phase 1 (forward)** -- forward searches for every read; each required
  backward search is recorded in a metadata table as
  (k-mer of the reverse-complemented segment, read id, LEP position).
* **Phase 2 (sort)** -- the metadata table is sorted by k-mer, modelling
  the accelerator's hardware sorter (§IV-D).
* **Phase 3 (backward)** -- searches for the same k-mer run back to back;
  a direct-mapped reuse cache (4 MB, 64 B lines, like the accelerator's)
  absorbs the repeated index-entry, tree-root and upper-tree fetches.

Because backward searches no longer run right-to-left within a read, the
§III-F pruning cannot apply (the paper notes the resulting slight increase
in leaf gathering); the final per-read SMEM set is reconciled with the same
containment filter and is bit-identical to the per-read pipeline's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import telemetry
from repro.core.engine import ErtSeedingEngine
from repro.memsim.cache import CacheModel
from repro.seeding.algorithm import (
    SeedingParams,
    filter_contained,
    last_round,
    reseed_round,
    smems_to_seeds,
)
from repro.seeding.types import Mem, SeedingResult
from repro.telemetry.spans import Tracer


@dataclass(frozen=True)
class BackwardTask:
    """One deferred backward search in the metadata table (Fig 6)."""

    kmer: int
    read_id: int
    position: int
    paired: bool = False


@dataclass
class ReuseStats:
    """Counters and timings of one batch (used by the §III-C benches)."""

    reads: int = 0
    tasks: int = 0
    unique_kmers: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    forward_seconds: float = 0.0
    sort_seconds: float = 0.0
    backward_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of backward tasks whose k-mer was already seen in the
        batch (the paper reports ~45 % at batch size 1000)."""
        if not self.tasks:
            return 0.0
        return 1.0 - self.unique_kmers / self.tasks


class KmerReuseDriver:
    """Batched three-phase seeding over an :class:`ErtSeedingEngine`."""

    def __init__(self, engine: ErtSeedingEngine,
                 params: "SeedingParams | None" = None,
                 cache_bytes: int = 4 * 1024 * 1024,
                 cache_ways: int = 1) -> None:
        self.engine = engine
        self.params = params or SeedingParams()
        self.cache_bytes = cache_bytes
        self.cache_ways = cache_ways
        self.last_stats: "ReuseStats | None" = None
        #: Optional callable invoked between work units (per read in
        #: phase 1, per k-mer group in phase 3, per read afterwards); the
        #: accelerator trace capture uses it to segment jobs.
        self.unit_hook: "Optional[Callable[[str], None]]" = None

    def _mark(self, label: str) -> None:
        if self.unit_hook is not None:
            self.unit_hook(label)

    def _task_kmer(self, read: np.ndarray, position: int) -> int:
        """K-mer code of the reverse-complemented segment ending at
        ``position`` (what phase 3 will actually look up)."""
        rc = self.engine._revcomp(read)
        q = int(read.size) - position
        k = self.engine.index.config.k
        return self.engine.index.kmer_code(rc[q:q + k])

    def seed_batch(self, reads: "list[np.ndarray]") -> "list[SeedingResult]":
        """Seed a batch of reads; returns one result per read, identical
        to what per-read :func:`~repro.seeding.algorithm.seed_read` yields.
        """
        engine = self.engine
        params = self.params
        stats = ReuseStats(reads=len(reads))
        engine.begin_read()  # one shared scratch space for the whole batch

        # Phase wall-clocks come from a batch-local span tracer so the
        # ReuseStats the §III-C benches read are populated whether or not
        # global telemetry is on; the telemetry.span() calls mirror the
        # same phases into the --profile report when it is (ERT003: all
        # timing flows through repro.telemetry).
        phases = Tracer()
        with telemetry.span("seed_batch"):
            # Phase 1: forward extension; defer every backward search.
            with telemetry.span("forward"), phases.span("forward"):
                tasks: "list[BackwardTask]" = []
                merge = engine.index.config.prefix_merging
                for rid, read in enumerate(reads):
                    x = 0
                    n = int(read.size)
                    while x < n:
                        forward = engine.forward_search(read, x)
                        engine.stats.forward_searches += 1
                        if forward.is_empty:
                            x += 1
                            continue
                        tasks.extend(self._plan_tasks(read, rid,
                                                      forward.leps, merge))
                        x = forward.end
                    self._mark(f"forward:{rid}")
                stats.tasks = len(tasks)

            # Phase 2: group by k-mer (hardware sorter stand-in).
            with telemetry.span("sort"), phases.span("sort"):
                tasks.sort(key=lambda t: t.kmer)
                stats.unique_kmers = len({t.kmer for t in tasks})

            # Phase 3: backward extension with the reuse cache attached.
            with telemetry.span("backward"), phases.span("backward"):
                cache = CacheModel(self.cache_bytes, ways=self.cache_ways)
                engine.index.reuse_cache = cache
                mems: "list[list[Mem]]" = [[] for _ in reads]
                try:
                    current_kmer = None
                    for task in tasks:
                        if task.kmer != current_kmer:
                            if current_kmer is not None:
                                self._mark(f"kmer:{current_kmer}")
                            current_kmer = task.kmer
                        read = reads[task.read_id]
                        if task.paired:
                            engine._merged_pair(read, task.position, 1,
                                                mems[task.read_id])
                        else:
                            s = engine.backward_search(read, task.position)
                            engine.stats.backward_searches += 1
                            if s < task.position:
                                mems[task.read_id].append(Mem(s,
                                                              task.position))
                    if current_kmer is not None:
                        self._mark(f"kmer:{current_kmer}")
                finally:
                    engine.index.reuse_cache = None
                stats.cache_hits = cache.stats.hits
                stats.cache_misses = cache.stats.misses

            # Reconciliation + rounds 2 and 3, per read.
            with telemetry.span("reconcile"):
                results = []
                for rid, read in enumerate(reads):
                    result = SeedingResult()
                    smems = filter_contained(mems[rid])
                    result.smems = smems_to_seeds(engine, read, smems, params)
                    if params.reseed:
                        result.reseed_seeds = reseed_round(
                            engine, read, result.smems, params)
                    if params.use_last:
                        result.last_seeds = last_round(engine, read, params)
                    results.append(result)
                    self._mark(f"reconcile:{rid}")

        stats.forward_seconds = phases.stats["forward"].total_s
        stats.sort_seconds = phases.stats["sort"].total_s
        stats.backward_seconds = phases.stats["backward"].total_s
        self.last_stats = stats
        return results

    def _plan_tasks(self, read: np.ndarray, rid: int,
                    leps: "tuple[int, ...]",
                    merge: bool) -> "list[BackwardTask]":
        """Turn a forward search's LEPs into metadata-table entries.

        With prefix merging, adjacent LEP pairs become one *paired* task
        keyed by the k-mer of the pair's shorter segment -- the tree the
        merged traversal actually walks."""
        out = []
        idx = len(leps) - 1
        while idx >= 0:
            p = leps[idx]
            if merge and idx >= 1 and leps[idx - 1] == p - 1:
                out.append(BackwardTask(self._task_kmer(read, p - 1), rid,
                                        p, paired=True))
                idx -= 2
            else:
                out.append(BackwardTask(self._task_kmer(read, p), rid, p))
                idx -= 1
        return out
