"""Seeding over the flat arena (the vector path): one engine, one walk.

:func:`seed_batch` returns, for a batch of reads, exactly the
:class:`~repro.seeding.types.SeedingResult` list the scalar
:func:`~repro.seeding.algorithm.seed_read` loop would -- byte-identical
seeds -- by running *the same three rounds* (written down once, in
:mod:`repro.seeding.algorithm`) over an :class:`ArenaSeedingEngine`,
whose every search is :func:`repro.kernels.walk.walk` over the arena
cursor's ``memoryview`` columns; the scalar oracle
(:class:`~repro.core.engine.ErtSeedingEngine`) steps a
:class:`~repro.core.walker.TreeCursor` over the same arena one character
per call.  Where the two engines differ, the difference is proven
output-invariant:

* Hits are gathered *lazily*: a search caches the ``(count, node)`` it
  ended in and ``locate`` slices the node's Euler-pool run only for the
  seeds that are emitted (the scalar engine gathers at every backward
  dead end, like the hardware).  A key no search cached -- a match that
  never left the index table or died inside a jump-table window -- is
  located by an exact walk, for the keys the scalar engine walks again.
* Prefix merging (§III-B) only skips backward searches whose MEMs are
  contained, and resolves pairs from gathered hit tuples this engine
  does not keep: the arena engine always runs the plain pruned sweep
  (§III-F), so on an index built without prefix merging its search
  counters equal the scalar engine's.
* Per-access *traffic* counters (nodes visited, leaf fetches) are not
  replicated: the engine counts its own work -- walk steps, gather
  nodes/bytes, launches -- in plain ints per read, which land in a
  :class:`~repro.kernels.stats.KernelBatchStats` and flush into the
  metrics registry once per batch under a single ``kernels.batch`` span
  (no per-read spans; the walk loop stays telemetry-call-free per
  ERT007/ERT017).

An ineligible engine (not an ERT engine, memory tracer or reuse cache
attached) makes :func:`seed_batch` count a
``kernels.fallback_scalar.<reason>`` and run the scalar per-read loop,
so callers can use it unconditionally.  Telemetry and exemplar capture
do *not* decline the vector path: observed runs are byte-identical to
dark ones.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.arena import arena_cursor
from repro.core.engine import ErtSeedingEngine
from repro.kernels.stats import KernelBatchStats
from repro.kernels.walk import walk
from repro.seeding.algorithm import SeedingParams, _three_rounds, seed_read
from repro.seeding.engine import ForwardSearch, SeedingEngine
from repro.seeding.types import SeedingResult

def vector_decline_reason(engine: "object") -> "str | None":
    """Why this engine cannot take the batched kernels, or ``None``
    when it can.

    The reason string doubles as the ``kernels.fallback_scalar.<reason>``
    counter label: ``engine`` (not an ERT engine), ``tracer`` (memsim
    tracer attached -- per-access tracing needs the scalar cursor) or
    ``reuse_cache`` (the reuse-distance probe, same constraint).
    Telemetry and exemplar capture are deliberately *not* reasons: the
    vector path runs fully observed via batch-flushed accumulators.
    """
    if not isinstance(engine, ErtSeedingEngine):
        return "engine"
    index = engine.index
    if index.tracer is not None:
        return "tracer"
    if index.reuse_cache is not None:
        return "reuse_cache"
    return None


class ArenaSeedingEngine(SeedingEngine):
    """The arena twin of an :class:`ErtSeedingEngine`: same index, same
    answers, every search one :func:`~repro.kernels.walk.walk`.

    It shares the host engine's :class:`EngineStats` and reads the
    reverse complements and rolling k-mer codes ``host.begin_batch``
    computed, so a read must belong to the host's current batch.  State
    is per read (one read at a time, loaded on first use): its two
    strands as ``bytes``, the ``(start, end) -> (count, node, strand)``
    hit cache, and the plain-int work accumulators ``seed_batch`` copies
    into its :class:`KernelBatchStats` row after the read.
    """

    def __init__(self, host: ErtSeedingEngine) -> None:
        self.host = host
        self.stats = host.stats
        self.min_query_len = host.min_query_len
        self.cursor = arena_cursor(host.index)
        self.begin_read()

    def begin_read(self) -> None:
        self._read: "np.ndarray | None" = None
        self._hits: "dict[tuple[int, int], tuple[int, int, bool]]" = {}
        self.walk_steps = 0
        self.gather_nodes = 0
        self.gather_bytes = 0
        self.reseed_launches = 0
        self.last_launches = 0

    def _load(self, read: np.ndarray) -> None:
        host = self.host
        host._check_read(read)
        # ERT001 exception: host._batch_pinned holds every read of the
        # batch for as long as these id()-keyed caches live.
        key = id(read)  # repro: allow(ERT001)
        rc = host._batch_rev[key]
        self._read = read
        self._n = int(read.size)
        self._seq = np.asarray(read, dtype=np.uint8).tobytes()
        self._rc = rc.tobytes()
        codes = host._batch_codes
        self._codes = (memoryview(codes[key])
                       if key in codes else None)
        self._rc_codes = (memoryview(codes[id(rc)])  # repro: allow(ERT001)
                          if key in codes else None)

    # -- the five engine questions, each one walk ----------------------

    def forward_search(self, read: np.ndarray, start: int,
                       min_hits: int = 1) -> ForwardSearch:
        if read is not self._read:
            self._load(read)
        if min_hits > 1:  # only reseeding asks for more than one hit
            self.reseed_launches += 1
        leps: "list[int]" = []
        end, _nid, _count, steps = walk(
            self.cursor, self._seq, self._codes, start, self._n, min_hits,
            leps, min_hits == 1)
        self.stats.index_lookups += 1
        self.walk_steps += steps
        if end <= start:
            return ForwardSearch(start, start, ())
        return ForwardSearch(start, end, tuple(leps))

    def backward_search(self, read: np.ndarray, end: int,
                        min_hits: int = 1) -> int:
        """A forward walk of the reverse complement (§III-A3 step 6);
        the node it ends in is cached for ``locate``."""
        if read is not self._read:
            self._load(read)
        q = self._n - end
        rc_end, nid, count, steps = walk(
            self.cursor, self._rc, self._rc_codes, q, self._n, min_hits,
            None, min_hits == 1)
        self.stats.index_lookups += 1
        self.walk_steps += steps
        s = end - (rc_end - q)
        if nid >= 0:
            self._hits[(s, end)] = (count, nid, True)
        return s

    def last_seed(self, read: np.ndarray, start: int, min_len: int,
                  max_intv: int) -> "tuple[int, int] | None":
        if read is not self._read:
            self._load(read)
        if self._n - start < self.cursor.k:
            return None
        end, nid, count, steps = walk(
            self.cursor, self._seq, self._codes, start, self._n, 1, None,
            False, min_len, max_intv)
        self.stats.index_lookups += 1
        if nid < 0:  # the k-mer itself is absent: nothing was launched
            return None
        self.last_launches += 1
        self.walk_steps += steps
        if count < max_intv and end - start >= min_len:
            self._hits[(start, end)] = (count, nid, False)
            return end, count
        return None

    def _exact(self, start: int, end: int) -> "tuple[int, int] | None":
        """``(count, node)`` of ``read[start:end]`` (longer than k), or
        ``None`` when it does not occur."""
        reached, nid, count, steps = walk(
            self.cursor, self._seq, self._codes, start, end)
        self.stats.index_lookups += 1
        self.walk_steps += steps
        return (count, nid) if reached == end and nid >= 0 else None

    def count(self, read: np.ndarray, start: int, end: int) -> int:
        if read is not self._read:
            self._load(read)
        if end - start <= self.cursor.k:
            return self.host.index.prefix_count(read[start:end])
        found = self._exact(start, end)
        return found[0] if found else 0

    def locate(self, read: np.ndarray, start: int, end: int,
               limit: "int | None" = None) -> "tuple[int, list[int]]":
        if read is not self._read:
            self._load(read)
        cached = self._hits.get((start, end))
        if cached is None:
            k = self.cursor.k
            if end - start < k:
                raise ValueError(
                    f"ERT locate needs segments of at least k={k} "
                    f"characters; got [{start}, {end}) -- use "
                    f"min_seed_len >= k")
            found = self._exact(start, end)
            if found is None:
                raise RuntimeError(
                    f"segment [{start}, {end}) does not occur")
            cached = found + (False,)
        count, nid, reverse = cached
        if limit is not None and count > limit:
            self.stats.truncated_hit_lists += 1
            return count, []
        # The node's subtree is one contiguous run of the Euler pool.
        cursor = self.cursor
        off = cursor.pos_off[nid]
        run = cursor.pool[off:off + cursor.count[nid]]
        self.gather_nodes += 1
        self.gather_bytes += run.nbytes
        if not reverse:
            return count, sorted(run)
        # An occurrence of the reverse-complemented segment at ``t`` is
        # an occurrence of the segment itself at ``2N - t - L``.
        flip = len(cursor.text) - (end - start)
        return count, [flip - t for t in sorted(run, reverse=True)]


def seed_batch(engine: "ErtSeedingEngine", reads: "list[np.ndarray]",
               params: "SeedingParams | None" = None,
               stats: "KernelBatchStats | None" = None
               ) -> "list[SeedingResult]":
    """All three seeding rounds for a whole batch of reads; returns one
    :class:`SeedingResult` per read, byte-identical to the scalar loop.

    Runs fully observed: the arena engine's per-read work accumulators
    land in ``stats`` and flush into the metrics registry once, under a
    single ``kernels.batch`` span.  The span nests inside a root
    ``seed`` span for scalar parity -- the ledger's derived
    ``seeding.reads_per_sec`` reads the ``seed`` root total, so vector
    snapshots feed the same throughput gates.  Pass ``stats`` to keep
    the accumulators afterwards (the scheduler derives per-read exemplar
    counters from them); the flush happens here either way, exactly
    once.
    """
    params = params or SeedingParams()
    reads = list(reads)
    if not reads:
        return []
    reason = vector_decline_reason(engine)
    if reason is not None:
        telemetry.count("kernels.fallback_scalar." + reason)
        return [seed_read(engine, read, params) for read in reads]
    if stats is None:
        stats = KernelBatchStats(len(reads))
    # Reverse complements and rolling codes come from the engine's
    # begin_batch; run it here only for a caller that has not.
    pinned = engine._batch_pinned
    if any(pinned.get(id(r)) is not r  # repro: allow(ERT001)
           for r in reads):
        engine.begin_batch(reads)
    arena = ArenaSeedingEngine(engine)
    shortest = max(params.min_seed_len, arena.min_query_len)
    results = []
    before = engine.stats.as_dict()
    with telemetry.span("seed"), telemetry.span("kernels.batch"):
        # The dark body of ``seed_read``, read by read.
        for i, read in enumerate(reads):
            if int(read.size) < shortest:
                stats.short_reads += 1
                results.append(SeedingResult())
                continue
            arena.begin_read()
            results.append(_three_rounds(arena, read, params,
                                         observed=False))
            stats.walk_steps[i] = arena.walk_steps
            stats.gather_nodes[i] = arena.gather_nodes
            stats.gather_bytes[i] = arena.gather_bytes
            stats.reseed_launches[i] = arena.reseed_launches
            stats.last_launches[i] = arena.last_launches
    stats.flush(before, engine.stats.as_dict(), results)
    return results
