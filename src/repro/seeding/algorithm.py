"""The canonical three-round seeding algorithm of BWA-MEM2.

Round 1 -- **SMEM generation** (§II-A): pivoted forward search recording
left-extension points (LEPs), one backward search per LEP, containment
filtering.  Backward searches run right-to-left so the §III-F pruning rule
("a search that reaches the previous pivot makes all remaining ones
redundant") applies; pruning is output-invariant, it only skips searches
whose MEMs are provably contained.

Round 2 -- **reseeding**: long, low-occurrence SMEMs are re-seeded from
their midpoint requiring at least ``occ + 1`` hits, recovering shorter
matches hidden inside a dominant long match.

Round 3 -- **LAST**: a forward-only greedy scan emitting the shortest
match from each position that is both long (``>= min_seed_len``) and
selective (``< max_mem_intv`` hits).

The same function drives any :class:`~repro.seeding.engine.SeedingEngine`,
which is how the repository realizes the paper's bit-equivalence guarantee
between FMD-index and ERT seeding.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.seeding.engine import SeedingEngine
from repro.seeding.types import Mem, Seed, SeedingResult


@dataclass(frozen=True)
class SeedingParams:
    """Seeding parameters (defaults follow BWA-MEM at human scale).

    At the small synthetic-genome scales this reproduction runs, shorter
    ``min_seed_len`` values are common in tests; the defaults mirror the
    paper's configuration.
    """

    min_seed_len: int = 19
    use_pruning: bool = True
    reseed: bool = True
    split_factor: float = 1.5
    split_width: int = 10
    use_last: bool = True
    max_mem_intv: int = 20
    max_hits_per_seed: "int | None" = 500

    @property
    def split_len(self) -> int:
        """SMEMs at least this long are candidates for reseeding."""
        return int(self.min_seed_len * self.split_factor + 0.499)


def _pivot_mems(engine: SeedingEngine, read: np.ndarray, pivot: int,
                min_hits: int, prev_pivot: int,
                use_pruning: bool) -> "tuple[list[Mem], int, bool]":
    """Forward search from one pivot plus its backward searches.

    Returns the MEMs found and the end of the forward match (the next
    pivot).  Backward searches run right-to-left over the LEPs; with
    pruning on, a search reaching ``prev_pivot`` terminates the loop
    because every remaining MEM is contained in the one just found.
    """
    forward = engine.forward_search(read, pivot, min_hits)
    engine.stats.forward_searches += 1
    if forward.is_empty:
        return [], pivot + 1, True
    mems = engine.backward_sweep(read, forward.leps, min_hits, prev_pivot,
                                 use_pruning)
    return mems, forward.end, False


def filter_contained(mems: "list[Mem]") -> "list[Mem]":
    """Drop MEMs fully contained in another MEM (SMEM condition)."""
    out = []
    max_end = -1
    for mem in sorted(set(mems), key=lambda m: (m.start, -m.end)):
        if mem.end > max_end:
            out.append(mem)
            max_end = mem.end
    return out


def generate_smems(engine: SeedingEngine, read: np.ndarray,
                   params: "SeedingParams | None" = None,
                   pivot: "int | None" = None,
                   min_hits: int = 1) -> "list[Mem]":
    """Round 1: the SMEM set of ``read`` (all lengths; callers filter).

    With ``pivot`` given, only that single pivot is processed (reseeding
    uses this).  Otherwise pivots sweep the read: each forward match's end
    becomes the next pivot (§II-A).
    """
    params = params or SeedingParams()
    mems: "list[Mem]" = []
    if pivot is not None:
        found, _, _ = _pivot_mems(engine, read, pivot, min_hits, 0,
                                  params.use_pruning)
        return filter_contained(found)
    x = 0
    prev_pivot = 0
    n = int(read.size)
    while x < n:
        found, nxt, empty = _pivot_mems(engine, read, x, min_hits,
                                        prev_pivot, params.use_pruning)
        mems.extend(found)
        if nxt <= x:
            raise RuntimeError("engine failed to advance the pivot")
        # No match can cross a below-threshold character, so an empty
        # forward search moves the barrier past it; otherwise the barrier
        # for the next segment's backward searches is this pivot (§III-F).
        prev_pivot = x + 1 if empty else x
        x = nxt
    return filter_contained(mems)


def _make_seed(engine: SeedingEngine, read: np.ndarray, mem: Mem,
               params: SeedingParams) -> Seed:
    count, hits = engine.locate(read, mem.start, mem.end,
                                params.max_hits_per_seed)
    return Seed(read_start=mem.start, length=mem.length,
                hits=tuple(hits), hit_count=count)


def smems_to_seeds(engine: SeedingEngine, read: np.ndarray,
                   mems: "list[Mem]", params: SeedingParams) -> "list[Seed]":
    """Round-1 seed emission: length filter plus hit lookup."""
    return [_make_seed(engine, read, m, params) for m in mems
            if m.length >= params.min_seed_len]


def reseed_round(engine: SeedingEngine, read: np.ndarray,
                 smem_seeds: "list[Seed]",
                 params: SeedingParams) -> "list[Seed]":
    """Round 2: reseed long, low-occurrence SMEMs from their midpoint,
    requiring strictly more hits than the SMEM itself had."""
    out = []
    for seed in smem_seeds:
        if (seed.length >= params.split_len
                and seed.hit_count <= params.split_width):
            mid = (seed.read_start + seed.read_end) // 2
            extra = generate_smems(engine, read, params, pivot=mid,
                                   min_hits=seed.hit_count + 1)
            out.extend(_make_seed(engine, read, mem, params)
                       for mem in extra
                       if mem.length >= params.min_seed_len)
    return out


def last_round(engine: SeedingEngine, read: np.ndarray,
               params: SeedingParams) -> "list[Seed]":
    """Round 3: LAST -- greedy forward scan for short selective matches."""
    out = []
    x = 0
    n = int(read.size)
    while x + params.min_seed_len <= n:
        found = engine.last_seed(read, x, params.min_seed_len,
                                 params.max_mem_intv)
        if found is None:
            x += 1
            continue
        end, _count = found
        out.append(_make_seed(engine, read, Mem(x, end), params))
        x = end
    return out


_NO_SPAN = nullcontext()


def _no_span(_name: str) -> "nullcontext[None]":
    return _NO_SPAN


#: How engine work counters surface as telemetry counter names.  Most map
#: mechanically under ``seeding.``; the gather-limit clip gets the
#: user-facing name the CLI and docs advertise.
_STAT_COUNTERS = {"truncated_hit_lists": "seeds.truncated"}


def _flush_engine_stats(engine: SeedingEngine,
                        before: "dict[str, int]") -> None:
    """Publish this read's engine-stat deltas into the metrics registry.

    Hot loops (tree walks, occ lookups) never call telemetry directly --
    they keep counting into :class:`~repro.seeding.engine.EngineStats` as
    they always have, and this one flush per read surfaces the deltas.
    """
    after = engine.stats.as_dict()
    telemetry.add_counters(
        {_STAT_COUNTERS.get(name, f"seeding.{name}"):
         after[name] - before.get(name, 0) for name in after})


def _three_rounds(engine: SeedingEngine, read: np.ndarray,
                  params: SeedingParams, observed: bool) -> SeedingResult:
    """The three rounds over one read that is long enough to seed --
    the one place they are written down.  ``observed`` brackets each
    round in a telemetry span: the per-read scalar driver asks for it
    when telemetry is on; :func:`repro.kernels.seeding.seed_batch`,
    which observes a whole batch under one span, never does."""
    span = telemetry.span if observed else _no_span
    result = SeedingResult()
    with span("smem"):
        smems = generate_smems(engine, read, params)
        result.smems = smems_to_seeds(engine, read, smems, params)
    if params.reseed:
        with span("reseed"):
            result.reseed_seeds = reseed_round(engine, read, result.smems,
                                               params)
    if params.use_last:
        with span("last"):
            result.last_seeds = last_round(engine, read, params)
    return result


def seed_read(engine: SeedingEngine, read: np.ndarray,
              params: "SeedingParams | None" = None) -> SeedingResult:
    """Run all three seeding rounds for one read.

    Reads shorter than ``max(min_seed_len, engine.min_query_len)`` yield
    an empty result without touching the engine: no seed of the required
    length fits in them, and engine primitives (the ERT walk in
    particular) reject segments shorter than ``k``.
    """
    params = params or SeedingParams()
    if int(read.size) < max(params.min_seed_len, engine.min_query_len):
        if telemetry.enabled():
            telemetry.count("seeding.reads")
            telemetry.count("seeding.short_reads_skipped")
        return SeedingResult()
    engine.begin_read()
    if not telemetry.enabled():
        return _three_rounds(engine, read, params, observed=False)
    before = engine.stats.as_dict()
    with telemetry.span("seed"):
        result = _three_rounds(engine, read, params, observed=True)
    _flush_engine_stats(engine, before)
    telemetry.count("seeding.reads")
    all_seeds = result.all_seeds
    telemetry.count("seeds.emitted", len(all_seeds))
    for seed in all_seeds:
        telemetry.observe("seed.length", seed.length)
        telemetry.observe("seed.hit_count", seed.hit_count)
    return result
