"""Batched three-round seeding over the flat ERT (the vector path).

:func:`seed_batch` produces, for a whole batch of reads, exactly the
:class:`~repro.seeding.types.SeedingResult` list the scalar
:func:`~repro.seeding.algorithm.seed_read` loop would -- byte-identical
seeds -- through :mod:`repro.kernels.walk` instead of one Python call
per character: rounds 1-2 (pivot waves, backward batches, reseeding)
are sets of independent walks and run as lane sets; round 3 (LAST) is
one dependency chain per read -- each launch starts where the previous
one ended or died -- and runs as a scalar walk over the arena cursor.

Where the two paths differ internally, the difference is proven
output-invariant:

* Backward searches run **unpruned** (the §III-F pruning rule and
  §III-B prefix merging only skip searches whose MEMs are contained;
  ``filter_contained`` equalizes the MEM set).
* Hit caches are preseeded from the flat arena's Euler pool slices; a
  cache entry always holds the exact ``(count, sorted hits)`` the scalar
  cursor's gather would produce, and ``locate()`` falls back to the
  scalar walk for exactly the same keys in both paths.
* Engine *work counters* (nodes visited, leaf fetches) are not
  replicated -- the vector path reports its own traffic instead:
  per-lane walk steps, gather nodes/bytes and launch counts accumulate
  in a :class:`~repro.kernels.stats.KernelBatchStats` during the sweep
  and flush into the metrics registry once per batch under a single
  ``kernels.batch`` span (so telemetry no longer forces scalar mode,
  and the hot loops stay telemetry-call-free per ERT007/ERT017).
  Emitted seeds, counts, hits and the ``truncated_hit_lists`` counter
  (the only stat surfaced in CLI summaries) are identical.

When the engine is not eligible (non-ERT engine, attached memory
tracer, attached reuse cache), :func:`seed_batch` counts a
``kernels.fallback_scalar.<reason>`` and falls back to the scalar
per-read loop, so callers can use it unconditionally.  Telemetry and
exemplar capture do *not* decline the vector path: observed vector
runs are byte-identical to dark ones.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.arena import FlatTrees, flat_trees
from repro.core.engine import ErtSeedingEngine
from repro.core.index import EntryKind
from repro.kernels.stats import KernelBatchStats
from repro.kernels.walk import Lanes, arena_cursor, drain, last_chain
from repro.seeding.algorithm import (
    SeedingParams,
    _make_seed,
    filter_contained,
    seed_read,
    smems_to_seeds,
)
from repro.seeding.types import Mem, SeedingResult
from repro.sequence.alphabet import COMPLEMENT


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


class _WalkOut:
    """Batched :meth:`ErtSeedingEngine._walk` results (one row per job)."""

    __slots__ = ("ends_rel", "leps", "entered", "nid", "count", "steps",
                 "occ_live", "occ_slots")

    def __init__(self, ends_rel: np.ndarray, leps: "list[list[int]] | None",
                 entered: np.ndarray, nid: np.ndarray,
                 count: np.ndarray, steps: np.ndarray,
                 occ_live: int, occ_slots: int) -> None:
        self.ends_rel = ends_rel
        self.leps = leps
        self.entered = entered
        self.nid = nid
        self.count = count
        #: Characters consumed by walk advances, per job (plain
        #: accumulators the batch driver attributes back to reads).
        self.steps = steps
        self.occ_live = occ_live
        self.occ_slots = occ_slots


def _resolve_codes(flat: FlatTrees, seq: np.ndarray, starts: np.ndarray,
                   tail: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`ErtIndex.kmer_code` over many windows: big-endian
    2-bit pack of up to ``k`` characters, right-padded with zero (A)."""
    k = flat.k
    ar = np.arange(k, dtype=np.int64)
    offm = starts[:, None] + ar[None, :]
    validm = ar[None, :] < tail[:, None]
    safe = np.minimum(offm, max(int(seq.size) - 1, 0))
    cm = seq[safe] * validm
    weights = (4 ** np.arange(k - 1, -1, -1)).astype(np.int64)
    return cm @ weights


def _walk_jobs(engine: ErtSeedingEngine, flat: FlatTrees, seq: np.ndarray,
               starts: np.ndarray, stops: np.ndarray, bases: np.ndarray,
               min_hits: np.ndarray, collect_leps: bool) -> _WalkOut:
    """Batched longest-match walk: the vector twin of
    ``ErtSeedingEngine._walk`` (k-mer entry resolve, optional
    second-level table jump, lane-masked tree walk).

    Offsets are absolute into ``seq``; ``bases[j]`` is job ``j``'s
    sequence origin, so returned ends and LEPs are relative to it.
    """
    index = engine.index
    text = index.text
    k = flat.k
    J = int(starts.size)
    engine.stats.index_lookups += J
    tail = np.minimum(k, stops - starts)
    code = _resolve_codes(flat, seq, starts, tail)

    # -- k-mer entry: matched length (and count matrix for min_hits > 1).
    matched = np.zeros(J, dtype=np.int64)
    m1 = min_hits == 1
    if m1.any():
        c1 = code[m1]
        matched[m1] = np.minimum(index.prefix_len[c1].astype(np.int64),
                                 tail[m1])
    mh_rows = np.nonzero(~m1)[0]
    mh_counts = None
    if mh_rows.size:
        cmh = code[mh_rows]
        mh_counts = np.zeros((mh_rows.size, k + 1), dtype=np.int64)
        for length in range(1, k + 1):
            cl = cmh >> (2 * (k - length))
            if length == k:
                mh_counts[:, length] = index.kmer_count[cl]
            else:
                mh_counts[:, length] = index.prefix_counts[length - 1][cl]
        okm = ((mh_counts[:, 1:] >= min_hits[mh_rows][:, None])
               & (np.arange(k)[None, :] < tail[mh_rows][:, None]))
        matched[mh_rows] = np.cumprod(okm, axis=1).sum(axis=1)
    mh_row_of = np.full(J, -1, dtype=np.int64)
    mh_row_of[mh_rows] = np.arange(mh_rows.size)

    in_window = (matched < tail) | (tail < k)
    tree = ~in_window

    # -- second-level table jump (§III-E): min_hits == 1 dense k-mers.
    x = flat.table_x
    is_table = (tree & m1
                & (index.entry_kind[code] == int(EntryKind.TABLE))
                & (stops - (starts + k) >= x))
    lanes = Lanes(J)
    lanes.min_hits[:] = min_hits
    lanes.cur[:] = starts + k
    lanes.stop[:] = stops
    entered = np.zeros(J, dtype=bool)
    tbl_dead = np.zeros(J, dtype=bool)
    tbl_jm = np.zeros(J, dtype=np.int64)
    tbl_bits = np.zeros(J, dtype=np.int64)
    if is_table.any():
        ti = np.nonzero(is_table)[0]
        arx = np.arange(x, dtype=np.int64)
        subm = seq[(starts[ti] + k)[:, None] + arx[None, :]]
        wx = (4 ** np.arange(x - 1, -1, -1)).astype(np.int64)
        sub = subm @ wx
        slot = flat.table_slot[code[ti]]
        jm = flat.jt_matched[slot, sub]
        tbl_jm[ti] = jm
        tbl_bits[ti] = flat.jt_lep[slot, sub]
        short = jm < x
        tbl_dead[ti[short]] = True
        live = ~short
        tl = ti[live]
        lanes.nid[tl] = flat.jt_node[slot[live], sub[live]]
        lanes.within[tl] = flat.jt_within[slot[live], sub[live]]
        lanes.depth[tl] = flat.jt_depth[slot[live], sub[live]]
        lanes.count[tl] = flat.jt_count[slot[live], sub[live]]
        lanes.cur[tl] += x
        entered[tl] = True

    plain = tree & ~is_table
    if plain.any():
        pi = np.nonzero(plain)[0]
        rn = flat.roots[code[pi]]
        lanes.nid[pi] = rn
        lanes.count[pi] = flat.count[rn]
        entered[pi] = True

    lanes.alive = tree & ~tbl_dead & (lanes.cur < lanes.stop)
    lep_lane, lep_pos = drain(flat, text, seq, lanes, collect_leps)

    ends_abs = np.where(in_window, starts + matched, lanes.cur)
    if tbl_dead.any():
        ends_abs[tbl_dead] = starts[tbl_dead] + k + tbl_jm[tbl_dead]
    ends_rel = ends_abs - bases

    leps: "list[list[int]] | None" = None
    if collect_leps:
        ev_by_lane: "dict[int, np.ndarray]" = {}
        if lep_lane.size:
            order = np.argsort(lep_lane, kind="stable")
            ll = lep_lane[order]
            pp = lep_pos[order]
            bounds = np.nonzero(np.diff(ll))[0] + 1
            firsts = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
            for lane, chunk in zip(ll[firsts], np.split(pp, bounds)):
                ev_by_lane[int(lane)] = chunk
        lep_bits = index.lep_bits
        leps = []
        for j in range(J):
            start_rel = int(starts[j] - bases[j])
            end_rel = int(ends_rel[j])
            mj = int(matched[j])
            out: "list[int]" = []
            if m1[j]:
                bits = int(lep_bits[code[j]])
                out.extend(start_rel + l for l in range(1, mj)
                           if (bits >> (l - 1)) & 1)
            else:
                row = mh_counts[mh_row_of[j]]
                out.extend(start_rel + length - 1
                           for length in range(2, mj + 1)
                           if row[length] != row[length - 1])
            if is_table[j]:
                p0 = start_rel + k
                bits = int(tbl_bits[j])
                out.extend(p0 + t for t in range(int(tbl_jm[j]))
                           if (bits >> t) & 1)
            events = ev_by_lane.get(j)
            if events is not None:
                base = int(bases[j])
                out.extend(int(p) - base for p in events)
            if end_rel > start_rel and (not out or out[-1] != end_rel):
                out.append(end_rel)
            leps.append(out)
    return _WalkOut(ends_rel, leps, entered, lanes.nid, lanes.count,
                    lanes.steps, lanes.occ_live, lanes.occ_slots)


def _cache_backward(engine: ErtSeedingEngine, flat: FlatTrees, key: int,
                    s: int, end: int, nid: int, count: int,
                    stats: KernelBatchStats, read: int) -> None:
    """Preseed the engine's hit cache exactly like
    ``_cache_hits_from_rev_cursor`` (rc positions mapped to forward).

    ``stats``/``read`` account the gather's Euler-pool traffic (nodes
    and bytes) to the read that caused it -- plain array adds, flushed
    once per batch."""
    if count > engine.gather_limit:
        engine._hits[(key, s, end)] = (count, ())
        return
    stats.gather_nodes[read] += 1
    stats.gather_bytes[read] += int(flat.pos_len[nid]) * flat.pool.itemsize
    two_n = int(engine.index.text.size)
    length = end - s
    pos = flat.gather(nid)
    hits = tuple((two_n - length - pos)[::-1].tolist())
    engine._hits[(key, s, end)] = (count, hits)


def _cache_forward(engine: ErtSeedingEngine, flat: FlatTrees, key: int,
                   start: int, end: int, nid: int, count: int,
                   stats: KernelBatchStats, read: int) -> None:
    """Preseed like ``_cache_from_forward_cursor`` (LAST emissions)."""
    if count > engine.gather_limit:
        engine._hits[(key, start, end)] = (count, ())
        return
    stats.gather_nodes[read] += 1
    stats.gather_bytes[read] += int(flat.pos_len[nid]) * flat.pool.itemsize
    engine._hits[(key, start, end)] = (count,
                                       tuple(flat.gather(nid).tolist()))


def seed_batch(engine: "ErtSeedingEngine", reads: "list[np.ndarray]",
               params: "SeedingParams | None" = None,
               stats: "KernelBatchStats | None" = None
               ) -> "list[SeedingResult]":
    """All three seeding rounds for a whole batch of reads; returns one
    :class:`SeedingResult` per read, byte-identical to the scalar loop.

    Runs fully observed: per-lane accumulators collect walk steps,
    gather traffic and launch counts during the sweep and flush into
    the metrics registry once, under a single ``kernels.batch`` span.
    The span nests inside a root ``seed`` span for scalar parity --
    the ledger's derived ``seeding.reads_per_sec`` reads the ``seed``
    root total, so vector snapshots feed the same throughput gates.
    Pass ``stats`` to keep the accumulators afterwards (the scheduler
    derives per-read exemplar counters from them); the flush happens
    here either way, exactly once.
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
    before = engine.stats.as_dict()
    with telemetry.span("seed"), telemetry.span("kernels.batch"):
        results = _seed_batch_vector(engine, reads, params, stats)
    stats.flush(before, engine.stats.as_dict(), results)
    return results


def _seed_batch_vector(engine: "ErtSeedingEngine",
                       reads: "list[np.ndarray]", params: SeedingParams,
                       stats: KernelBatchStats) -> "list[SeedingResult]":
    index = engine.index
    flat = flat_trees(index)
    k = index.config.k
    n_reads = len(reads)
    results = [SeedingResult() for _ in range(n_reads)]
    min_len_req = max(params.min_seed_len, engine.min_query_len)
    sizes = np.array([int(r.size) for r in reads], dtype=np.int64)
    active = [i for i in range(n_reads) if sizes[i] >= min_len_req]
    stats.short_reads = n_reads - len(active)
    if not active:
        return results
    for i in active:
        engine._check_read(reads[i])

    engine.begin_read()  # one cache epoch for the whole batch
    keys = {i: engine._key(reads[i]) for i in active}
    offs = np.zeros(n_reads + 1, dtype=np.int64)
    np.cumsum(sizes, out=offs[1:])
    fwd = np.concatenate([np.asarray(r) for r in reads]).astype(np.int64)
    total = int(fwd.size)
    rc = np.asarray(COMPLEMENT, dtype=np.int64)[fwd][::-1].copy()
    rc_base = total - offs[1:]  # start of read i's reverse complement

    # ---- Round 1: forward pivot chains -------------------------------
    chains: "dict[int, list[tuple[int, int, list[int]]]]" = {
        i: [] for i in active}
    pivots = {i: 0 for i in active}
    wave = list(active)
    while wave:
        ids = np.array(wave, dtype=np.int64)
        starts = offs[ids] + np.array([pivots[i] for i in wave],
                                      dtype=np.int64)
        out = _walk_jobs(engine, flat, fwd, starts, offs[ids + 1],
                         offs[ids], np.ones(len(wave), dtype=np.int64),
                         collect_leps=True)
        engine.stats.forward_searches += len(wave)
        stats.absorb_walk(ids, out)
        nxt_wave = []
        for row, i in enumerate(wave):
            piv = pivots[i]
            end = int(out.ends_rel[row])
            if end <= piv:
                nxt = piv + 1
            else:
                chains[i].append((piv, end, out.leps[row]))
                nxt = end
            if nxt <= piv:
                raise RuntimeError("engine failed to advance the pivot")
            pivots[i] = nxt
            if nxt < int(sizes[i]):
                nxt_wave.append(i)
        wave = nxt_wave

    # ---- Round 1: all backward searches in one batch (unpruned) ------
    # MEM construction and cache preseeding are deferred until after the
    # per-read containment filter: only surviving MEMs long enough to
    # become seeds ever reach ``locate``, and for any key we skip,
    # ``locate`` falls back to the (output-identical) scalar walk.
    bread: "list[int]" = []
    bp: "list[int]" = []
    njobs = {i: 0 for i in active}
    for i in active:
        for _piv, _end, leps in chains[i]:
            bread.extend([i] * len(leps))
            bp.extend(leps)
            njobs[i] += len(leps)
    s_arr = ends = entered = nid = count = None
    if bread:
        ids = np.array(bread, dtype=np.int64)
        ps = np.array(bp, dtype=np.int64)
        bases = rc_base[ids]
        starts = bases + (sizes[ids] - ps)
        out = _walk_jobs(engine, flat, rc, starts, bases + sizes[ids],
                         bases, np.ones(ids.size, dtype=np.int64),
                         collect_leps=False)
        engine.stats.backward_searches += ids.size
        stats.absorb_walk(ids, out)
        # s = p - length = size - ends_rel (ends are rc-relative).
        s_arr = sizes[ids] - out.ends_rel
        entered, nid, count = out.entered, out.nid, out.count
    row0 = 0
    for i in active:
        rows = range(row0, row0 + njobs[i])
        row0 += njobs[i]
        row_of = {(int(s_arr[r]), bp[r]): r for r in rows
                  if int(s_arr[r]) < bp[r]}
        kept: "list[Mem]" = []
        max_end = -1
        for s, p in sorted(row_of, key=lambda t: (t[0], -t[1])):
            if p > max_end:
                kept.append(Mem(s, p))
                max_end = p
        for mem in kept:
            if mem.length >= params.min_seed_len:
                r = row_of[(mem.start, mem.end)]
                if entered[r]:
                    _cache_backward(engine, flat, keys[i], mem.start,
                                    mem.end, int(nid[r]), int(count[r]),
                                    stats, i)
        results[i].smems = smems_to_seeds(engine, reads[i], kept, params)

    # ---- Round 2: reseeding ------------------------------------------
    if params.reseed:
        rread: "list[int]" = []
        rmid: "list[int]" = []
        rmh: "list[int]" = []
        for i in active:
            for seed in results[i].smems:
                if (seed.length >= params.split_len
                        and seed.hit_count <= params.split_width):
                    rread.append(i)
                    rmid.append((seed.read_start + seed.read_end) // 2)
                    rmh.append(seed.hit_count + 1)
        if rread:
            ids = np.array(rread, dtype=np.int64)
            mids = np.array(rmid, dtype=np.int64)
            mhs = np.array(rmh, dtype=np.int64)
            fo = _walk_jobs(engine, flat, fwd, offs[ids] + mids,
                            offs[ids + 1], offs[ids], mhs,
                            collect_leps=True)
            engine.stats.forward_searches += ids.size
            stats.absorb_walk(ids, fo)
            np.add.at(stats.reseed_launches, ids, 1)
            brow: "list[int]" = []
            bps: "list[int]" = []
            for row in range(ids.size):
                if int(fo.ends_rel[row]) > int(mids[row]):
                    brow.extend([row] * len(fo.leps[row]))
                    bps.extend(fo.leps[row])
            found: "list[dict[tuple[int, int], int]]" = [
                {} for _ in range(ids.size)]
            bo = None
            if brow:
                rows = np.array(brow, dtype=np.int64)
                ps = np.array(bps, dtype=np.int64)
                rids = ids[rows]
                bases = rc_base[rids]
                starts = bases + (sizes[rids] - ps)
                bo = _walk_jobs(engine, flat, rc, starts,
                                bases + sizes[rids], bases, mhs[rows],
                                collect_leps=False)
                engine.stats.backward_searches += rows.size
                stats.absorb_walk(rids, bo)
                bs = sizes[rids] - bo.ends_rel
                for e in range(rows.size):
                    s, p = int(bs[e]), bps[e]
                    if s < p:
                        found[brow[e]][(s, p)] = e
            for row in range(ids.size):
                i = rread[row]
                max_end = -1
                for s, p in sorted(found[row], key=lambda t: (t[0], -t[1])):
                    if p <= max_end:
                        continue
                    max_end = p
                    if p - s < params.min_seed_len:
                        continue
                    e = found[row][(s, p)]
                    if bo.entered[e]:
                        _cache_backward(engine, flat, keys[i], s, p,
                                        int(bo.nid[e]), int(bo.count[e]),
                                        stats, i)
                    results[i].reseed_seeds.append(
                        _make_seed(engine, reads[i], Mem(s, p), params))

    # ---- Round 3: LAST ------------------------------------------------
    if params.use_last:
        if params.min_seed_len < k:
            raise ValueError(
                f"LAST with min_len={params.min_seed_len} below k={k}: "
                f"the ERT cannot observe counts for matches shorter than "
                f"its k-mer")
        min_len = params.min_seed_len
        # Every launch position a LAST scan could ever visit is known up
        # front (x in [0, n - min_len]); their k-mer codes come from one
        # rolling pack of the concatenated batch (min_len >= k, so no
        # window straddles a read boundary).  A launch whose k-mer is
        # not fully present fails immediately (matched < k <= min_len)
        # and the scalar loop just advances x by one -- so only "viable"
        # positions with a full k-mer ever start a walk.
        ids = np.array(active, dtype=np.int64)
        A = len(active)
        jcounts = sizes[ids] - min_len + 1
        jb = np.zeros(A + 1, dtype=np.int64)
        np.cumsum(jcounts, out=jb[1:])
        jr = np.repeat(np.arange(A, dtype=np.int64), jcounts)
        jx = np.arange(int(jb[A]), dtype=np.int64) - jb[jr]
        weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
        codes = np.lib.stride_tricks.sliding_window_view(fwd, k) @ weights
        jcode = codes[offs[ids][jr] + jx]
        engine.stats.index_lookups += int(jr.size)
        v = np.nonzero(index.prefix_len[jcode] >= k)[0]
        vcode = jcode[v]
        vx = jx[v].tolist()
        vroot = flat.roots[vcode].tolist()
        vcount = index.kmer_count[vcode].tolist()
        vb = np.searchsorted(v, jb).tolist()

        # LAST is a per-read dependency chain (each launch starts where
        # the previous one ended or died), not a lane set: one scalar
        # walk per read over the arena cursor.
        cursor = arena_cursor(index)
        seq = fwd.astype(np.uint8).tobytes()
        for a, i in enumerate(active):
            emits, steps, launches = last_chain(
                cursor, seq, int(offs[i]), int(offs[i + 1]), vx, vroot,
                vcount, vb[a], vb[a + 1], min_len, params.max_mem_intv)
            stats.walk_steps[i] += steps
            stats.last_launches[i] = launches
            for x, end, nid, count in emits:
                _cache_forward(engine, flat, keys[i], x, end, nid, count,
                               stats, i)
                results[i].last_seeds.append(
                    _make_seed(engine, reads[i], Mem(x, end), params))
    return results
