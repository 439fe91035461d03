"""The canonical three-round seeding algorithm of BWA-MEM2.

Round 1 -- **SMEM generation** (§II-A): pivoted forward search recording
left-extension points (LEPs), one backward search per LEP, containment
filtering.  Backward searches run right-to-left so the §III-F pruning rule
("a search that reaches the previous pivot makes all remaining ones
redundant") applies; pruning is output-invariant, it only skips searches
whose MEMs are provably contained.

Round 2 -- **reseeding**: long, low-occurrence SMEMs are re-seeded from
their midpoint requiring at least ``occ + 1`` hits, recovering shorter
matches hidden inside a dominant long match.  With pruning, the backward
search from the first LEP ``p1`` runs first and reaches ``lo``; every
other LEP ``p`` has ``s(p) >= lo`` (``read[s(p):p1]`` is a substring of
``read[s(p):p]``, so it has at least as many hits), so a LEP with
``p - lo < min_seed_len`` can only yield a MEM the length filter drops,
and its search is skipped (``pruned_reseed_searches``).

Round 3 -- **LAST**: a forward-only greedy scan emitting the shortest
match from each position that is both long (``>= min_seed_len``) and
selective (``< max_mem_intv`` hits).  With pruning, round 1's SMEMs
(all lengths, starts and ends increasing) give ``E(x)``, the end of the
longest match starting at ``x``: the end of the last SMEM starting at or
before ``x`` when that end is past ``x``, else ``x``.  A launch with
``E(x) - x < min_seed_len`` cannot emit, so the scan jumps to the next
SMEM start; and once a launch with ``E(x) = n`` (the read end) returns
nothing, every later one does too -- ``count(x+1, L) >= count(x, L+1) >=
max_mem_intv`` for every ``L`` in ``[min_seed_len, n-x-1]`` -- so the
round ends (``pruned_last_launches`` counts the launches skipped).

One driver, :func:`seed_batch`, runs the rounds over a batch of reads
for any :class:`~repro.seeding.engine.SeedingEngine` (``seed_read`` is
its one-read call), which is how the repository realizes the paper's
bit-equivalence guarantee between FMD-index and ERT seeding.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro import telemetry
from repro.seeding.engine import SeedingEngine
from repro.seeding.stats import KernelBatchStats
from repro.seeding.types import Mem, Seed, SeedingResult

#: SMEMs at least ``min_seed_len * SPLIT_FACTOR`` long are reseeded
#: (BWA-MEM's ``split_factor``).
SPLIT_FACTOR = 1.5
#: :class:`Mem` field keys.
_START, _END = itemgetter(0), itemgetter(1)
#: Builds a value type without its Python-level ``__new__``: only where
#: the line before has established what the checking constructor checks.
_new = tuple.__new__


class SeedingParams(NamedTuple):
    """Seeding parameters (defaults follow BWA-MEM at human scale; a
    read-only ``NamedTuple``).

    At the small synthetic-genome scales this reproduction runs, shorter
    ``min_seed_len`` values are common in tests; the defaults mirror the
    paper's configuration.
    """

    min_seed_len: int = 19
    use_pruning: bool = True
    reseed: bool = True
    split_width: int = 10
    use_last: bool = True
    max_mem_intv: int = 20
    max_hits_per_seed: "int | None" = 500

    @property
    def split_len(self) -> int:
        """SMEMs at least this long are candidates for reseeding."""
        return int(self.min_seed_len * SPLIT_FACTOR + 0.499)


def filter_contained(mems: "list[Mem]") -> "list[Mem]":
    """Drop MEMs fully contained in another MEM (SMEM condition).

    Visits the distinct MEMs in ``(start, -end)`` order -- two stable
    sorts on C-level keys, by end descending and then by start -- so a
    MEM is contained in an earlier one iff its end is not past theirs."""
    if len(mems) < 2:
        return list(mems)
    ordered = sorted(set(mems), key=_END, reverse=True)
    ordered.sort(key=_START)
    out = []
    max_end = -1
    for mem in ordered:
        if mem[1] > max_end:
            out.append(mem)
            max_end = mem[1]
    return out


def generate_smems(engine: SeedingEngine, read: np.ndarray,
                   params: "SeedingParams | None" = None) -> "list[Mem]":
    """Round 1: the SMEM set of ``read`` (all lengths; callers filter).

    Pivots sweep the read: each forward match's end becomes the next
    pivot (§II-A).  Each pivot's backward searches run right-to-left over
    its LEPs; with pruning on, a search reaching the previous pivot ends
    the sweep because every remaining MEM is contained in the one just
    found (§III-F).
    """
    use_pruning = (params or SeedingParams()).use_pruning
    forward_search = engine.forward_search
    backward_sweep = engine.backward_sweep
    mems: "list[Mem]" = []
    x = 0
    prev_pivot = 0
    n = int(read.size)
    pivots = 0
    while x < n:
        _, end, leps = forward_search(read, x)
        pivots += 1
        if end <= x:
            # No match can cross a below-threshold character, so an
            # empty forward search moves the barrier past it.
            x = prev_pivot = x + 1
            continue
        mems += backward_sweep(read, leps, 1, prev_pivot, use_pruning)
        prev_pivot, x = x, end
    engine.stats.forward_searches += pivots
    return filter_contained(mems)


def smems_to_seeds(engine: SeedingEngine, read: np.ndarray,
                   mems: "list[Mem]", params: SeedingParams) -> "list[Seed]":
    """Round-1 seed emission: length filter plus hit lookup (one
    ``locate`` per emitted seed, as in every round)."""
    out = []
    min_len = params.min_seed_len
    limit = params.max_hits_per_seed
    locate = engine.locate
    for start, end in mems:
        if end - start >= min_len:
            count, hits = locate(read, start, end, limit)
            out.append(_new(Seed, (start, end - start, tuple(hits), count)))
    return out


def _reseed_mems(engine: SeedingEngine, read: np.ndarray, pivot: int,
                 min_hits: int, params: SeedingParams) -> "list[Mem]":
    """One reseed pivot: its forward search and backward sweep, with the
    LEPs that provably yield only short MEMs left out under pruning (see
    the module docstring)."""
    leps = engine.forward_search(read, pivot, min_hits)[2]
    stats = engine.stats
    stats.forward_searches += 1
    if not params.use_pruning or not leps:
        return filter_contained(engine.backward_sweep(
            read, leps, min_hits, 0, params.use_pruning))
    first = leps[0]
    lo = engine.backward_search(read, first, min_hits)
    stats.backward_searches += 1
    min_len = params.min_seed_len
    keep = tuple([p for p in leps[1:] if p - lo >= min_len])
    stats.pruned_reseed_searches += len(leps) - 1 - len(keep)
    mems = engine.backward_sweep(read, keep, min_hits, 0, True)
    if lo < first:  # establishes Mem's 0 <= start < end
        mems.append(_new(Mem, (lo, first)))
    return filter_contained(mems)


def reseed_round(engine: SeedingEngine, read: np.ndarray,
                 smem_seeds: "list[Seed]",
                 params: SeedingParams) -> "list[Seed]":
    """Round 2: reseed long, low-occurrence SMEMs from their midpoint,
    requiring strictly more hits than the SMEM itself had."""
    out: "list[Seed]" = []
    split_len = params.split_len
    split_width = params.split_width
    for read_start, length, _hits, hit_count in smem_seeds:
        if length >= split_len and hit_count <= split_width:
            out += smems_to_seeds(engine, read, _reseed_mems(
                engine, read, read_start + length // 2, hit_count + 1,
                params), params)
    return out


def last_round(engine: SeedingEngine, read: np.ndarray,
               params: SeedingParams, smems: "list[Mem]") -> "list[Seed]":
    """Round 3: LAST -- greedy forward scan for short selective matches.
    ``smems`` is round 1's SMEM list (all lengths): with pruning it says
    which launches provably emit nothing (see the module docstring)."""
    out = []
    x = 0
    n = int(read.size)
    min_len = params.min_seed_len
    max_intv = params.max_mem_intv
    limit = params.max_hits_per_seed
    last_seed = engine.last_seed
    locate = engine.locate
    stop = n - min_len + 1  # launches start before ``stop``
    prune = params.use_pruning
    n_smems = len(smems)
    pruned = 0
    # smems[:j] start at or before x, and ``reach`` is the end of the
    # last of them (-1 for none): E(x) when past x.  ``nxt`` is the
    # next SMEM's start (``stop`` after the last).
    j = 0
    reach = -1
    nxt = smems[0][0] if n_smems else stop
    while x < stop:
        if prune:
            if nxt <= x:
                while j < n_smems and smems[j][0] <= x:
                    j += 1
                reach = smems[j - 1][1]
                nxt = smems[j][0] if j < n_smems else stop
            if reach - x < min_len:
                pruned += min(nxt, stop) - x
                x = min(nxt, stop)
                continue
        found = last_seed(read, x, min_len, max_intv)
        if found is None:
            if prune and reach == n:
                pruned += stop - x - 1
                break
            x += 1
            continue
        end = found[0]
        count, hits = locate(read, x, end, limit)
        out.append(_new(Seed, (x, end - x, tuple(hits), count)))
        x = end
    engine.stats.pruned_last_launches += pruned
    return out


def seeds_from_smems(engine: SeedingEngine, read: np.ndarray,
                     smems: "list[Mem]",
                     params: SeedingParams) -> SeedingResult:
    """Everything after SMEM generation: round 1's seed emission, then
    rounds 2 and 3.  :func:`seed_batch` and the k-mer reuse driver's
    reconciliation (:mod:`repro.core.reuse`) both end here."""
    seeds = smems_to_seeds(engine, read, smems, params)
    return _new(SeedingResult, (
        seeds,
        reseed_round(engine, read, seeds, params) if params.reseed else [],
        last_round(engine, read, params, smems) if params.use_last else []))


def seed_batch(engine: SeedingEngine, reads: "list[np.ndarray]",
               params: "SeedingParams | None" = None,
               stats: "KernelBatchStats | None" = None
               ) -> "list[SeedingResult]":
    """All three seeding rounds for a batch of reads, one
    :class:`SeedingResult` per read in input order: the one seeding
    driver, for every engine.

    Reads shorter than ``max(min_seed_len, engine.min_query_len)`` yield
    an empty result without touching the engine: no seed of the required
    length fits in them, and engine primitives (the ERT walk in
    particular) reject segments shorter than ``k``.  A read's searches
    do not depend on its batch mates, so its result and its work
    counters are the same in any batch.  A batch of two or more reads
    is prepared at once (:meth:`~repro.seeding.engine.SeedingEngine.
    begin_batch`); a one-read call (``seed_read``) skips that hook,
    whose per-read preparation the engine does on first use anyway.

    The engine's per-read work counters land in ``stats`` (pass one to
    keep them: the scheduler derives per-read exemplar counters from
    them) and flush into the metrics registry once, under a ``seed``
    span holding one ``kernels.batch`` span; a dark call opens no span,
    touches no registry, and without ``stats`` builds no counter
    columns.
    """
    params = params or SeedingParams()
    reads = list(reads)
    if not reads:
        return []
    if len(reads) > 1:  # a lone read is prepared on first use anyway
        engine.begin_batch(reads)
    if not telemetry.enabled():
        return _seed_reads(engine, reads, params, stats)
    if stats is None:
        stats = KernelBatchStats(len(reads))
    before = engine.stats.as_dict()
    with telemetry.span("seed"), telemetry.span("kernels.batch"):
        results = _seed_reads(engine, reads, params, stats)
    stats.flush(before, engine.stats.as_dict(), results)
    return results


def _seed_reads(engine: SeedingEngine, reads: "list[np.ndarray]",
                params: SeedingParams,
                stats: "KernelBatchStats | None") -> "list[SeedingResult]":
    """:func:`seed_batch`'s loop: each read's three rounds, and its work
    counters into ``stats`` when given."""
    shortest = max(params.min_seed_len, engine.min_query_len)
    below_k = params.use_last and params.min_seed_len < engine.min_query_len
    begin_read = engine.begin_read
    results = []
    for i, read in enumerate(reads):
        if read.size < shortest:
            if stats is not None:
                stats.short_reads += 1
            results.append(SeedingResult())
            continue
        if below_k:
            raise ValueError(
                f"LAST with min_seed_len={params.min_seed_len} below the "
                f"engine's shortest query ({engine.min_query_len}, the "
                f"ERT's k): it cannot observe counts for shorter matches")
        begin_read()
        results.append(seeds_from_smems(
            engine, read, generate_smems(engine, read, params), params))
        if stats is not None:
            stats.walk_steps[i] = engine.walk_steps
            stats.gather_nodes[i] = engine.gather_nodes
            stats.gather_bytes[i] = engine.gather_bytes
            stats.reseed_launches[i] = engine.reseed_launches
            stats.last_launches[i] = engine.last_launches
    return results


def seed_read(engine: SeedingEngine, read: np.ndarray,
              params: "SeedingParams | None" = None) -> SeedingResult:
    """All three seeding rounds for one read: :func:`seed_batch` over
    ``[read]``."""
    return seed_batch(engine, [read], params)[0]
