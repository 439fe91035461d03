"""Seeding a batch of reads: :func:`seed_batch`.

It returns, for a batch of reads, exactly the
:class:`~repro.seeding.types.SeedingResult` list the per-read
:func:`~repro.seeding.algorithm.seed_read` loop would -- the same three
rounds (written down once, in :mod:`repro.seeding.algorithm`) over the
same :class:`~repro.core.engine.ErtSeedingEngine` -- and observes the
whole batch at once: the engine's per-read work counters (walk steps,
gather nodes/bytes, launches) land in a
:class:`~repro.kernels.stats.KernelBatchStats` and flush into the
metrics registry once per batch under a single ``kernels.batch`` span
(no per-read spans; the walk loop stays telemetry-call-free per
ERT007/ERT017).  Observed runs are byte-identical to dark ones, and a
batch seeded under a memory tracer or reuse cache charges the same
modelled traffic as ``seed_read`` read by read.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.engine import ErtSeedingEngine
from repro.kernels.stats import KernelBatchStats
from repro.seeding.algorithm import SeedingParams, _three_rounds
from repro.seeding.types import SeedingResult


def seed_batch(engine: ErtSeedingEngine, reads: "list[np.ndarray]",
               params: "SeedingParams | None" = None,
               stats: "KernelBatchStats | None" = None
               ) -> "list[SeedingResult]":
    """All three seeding rounds for a whole batch of reads; returns one
    :class:`SeedingResult` per read, byte-identical to ``seed_read``.

    Runs fully observed: the engine's per-read work accumulators land in
    ``stats`` and flush into the metrics registry once, under a single
    ``kernels.batch`` span.  The span nests inside a root ``seed`` span,
    so the ledger's derived ``seeding.reads_per_sec`` reads the ``seed``
    root total.  Pass ``stats`` to keep the accumulators afterwards (the
    scheduler derives per-read exemplar counters from them); the flush
    happens here either way, exactly once.
    """
    params = params or SeedingParams()
    reads = list(reads)
    if not reads:
        return []
    if stats is None:
        stats = KernelBatchStats(len(reads))
    # Reverse complements and rolling codes come from the engine's
    # begin_batch; run it here only for a caller that has not.
    pinned = engine._batch_pinned
    if any(pinned.get(id(r)) is not r  # repro: allow(ERT001)
           for r in reads):
        engine.begin_batch(reads)
    shortest = max(params.min_seed_len, engine.min_query_len)
    results = []
    before = engine.stats.as_dict()
    with telemetry.span("seed"), telemetry.span("kernels.batch"):
        # The dark body of ``seed_read``, read by read.
        for i, read in enumerate(reads):
            if int(read.size) < shortest:
                stats.short_reads += 1
                results.append(SeedingResult())
                continue
            engine.begin_read()
            results.append(_three_rounds(engine, read, params,
                                         observed=False))
            stats.walk_steps[i] = engine.walk_steps
            stats.gather_nodes[i] = engine.gather_nodes
            stats.gather_bytes[i] = engine.gather_bytes
            stats.reseed_launches[i] = engine.reseed_launches
            stats.last_launches[i] = engine.last_launches
    stats.flush(before, engine.stats.as_dict(), results)
    return results
