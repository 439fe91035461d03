"""The two walks over the flat arena: lane sets and single chains.

Independent walks -- a wave of forward pivots, every backward search of
a batch -- run as a lane set (:class:`Lanes`, :func:`step`,
:func:`drain`).  A walk whose every launch depends on where the last one
ended -- one read's LAST scan -- has no width to vectorize over and runs
as a plain Python chain over an :class:`ArenaCursor`
(:func:`last_chain`).

A :class:`Lanes` object holds the walk state of many concurrent tree
walks as parallel arrays (one row per lane).  :func:`step` advances every
lane in an index set using numpy gathers over the
:class:`~repro.core.arena.FlatTrees` arena -- the vectorized
equivalent of :meth:`repro.core.walker.TreeCursor.advance` -- but at
*node-run* granularity, which is exactly where the ERT's multi-character
lookup (§III-A2) pays off for a software kernel too:

* LEAF lanes resolve their whole remaining reference comparison (early
  path compression) with one block compare against the text;
* UNIFORM lanes resolve the node's whole merged character run with one
  block compare against the chars pool;
* DIVERGE lanes consume one character: gather the chosen child, honour
  ``min_hits``, and report hit-count changes (the LEP signal).

Hit counts are constant inside a LEAF/UNIFORM run, so no LEP events and
no count updates can occur there; only DIVERGE steps change counts.
Dead lanes stop *at* the failing character with their state otherwise
unchanged, exactly like the scalar cursor's failed ``advance`` -- the
caller reads the final ``nid``/``count`` for eager leaf gathering.
:func:`drain` runs lanes to exhaustion, recording (lane, position) LEP
events.
"""

from __future__ import annotations

import numpy as np

from repro.core.arena import (
    KIND_DIVERGE,
    KIND_LEAF,
    KIND_UNIFORM,
    FlatTrees,
    flat_trees,
)
from repro.core.index import ErtIndex


class Lanes:
    """Structure-of-arrays walk state for a batch of lanes."""

    __slots__ = ("nid", "within", "depth", "count", "min_hits",
                 "cur", "stop", "alive", "steps", "occ_live", "occ_slots")

    def __init__(self, n: int) -> None:
        self.nid = np.zeros(n, dtype=np.int64)
        self.within = np.zeros(n, dtype=np.int64)
        self.depth = np.zeros(n, dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)
        self.min_hits = np.ones(n, dtype=np.int64)
        #: Absolute cursor / end offset into the walk sequence.
        self.cur = np.zeros(n, dtype=np.int64)
        self.stop = np.zeros(n, dtype=np.int64)
        self.alive = np.zeros(n, dtype=bool)
        #: Characters consumed by walk advances, per lane.  Plain
        #: accumulators, never telemetry calls (ERT007/ERT017): the
        #: batch driver folds them into its KernelBatchStats and
        #: flushes once per batch.
        self.steps = np.zeros(n, dtype=np.int64)
        #: Occupancy accumulators: live lanes stepped / lane slots
        #: allocated, summed per walk round by :func:`drain`.
        self.occ_live = 0
        self.occ_slots = 0


def _run_lengths(eq: np.ndarray) -> np.ndarray:
    """Length of the leading all-True run per row."""
    return np.logical_and.accumulate(eq, axis=1).sum(axis=1)


def _step_small(flat: FlatTrees, text: np.ndarray, seq: np.ndarray,
                lanes: Lanes, idx: np.ndarray
                ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """:func:`step` for a handful of lanes: per-lane Python dispatch is
    cheaper than ~30 numpy ops once the batch has drained down to a few
    stragglers (late drain rounds of a pivot wave)."""
    adv = np.zeros(idx.size, dtype=np.int64)
    ok = np.zeros(idx.size, dtype=bool)
    changed = np.zeros(idx.size, dtype=bool)
    is_run = np.zeros(idx.size, dtype=bool)
    for e in range(idx.size):
        g = int(idx[e])
        nid = int(lanes.nid[g])
        kind = int(flat.kind[nid])
        cur = int(lanes.cur[g])
        rem = int(lanes.stop[g]) - cur
        if kind == KIND_DIVERGE:
            ch = int(flat.children[nid, int(seq[cur])])
            if ch >= 0:
                cnt = int(flat.count[ch])
                if cnt >= int(lanes.min_hits[g]):
                    adv[e] = 1
                    ok[e] = True
                    changed[e] = cnt != int(lanes.count[g])
                    lanes.nid[g] = ch
                    lanes.within[g] = 0
                    lanes.count[g] = cnt
                    lanes.depth[g] += 1
            continue
        is_run[e] = True
        if kind == KIND_LEAF:
            t0 = int(flat.leaf_text0[nid]) + flat.k + int(lanes.depth[g])
            w = min(rem, int(text.size) - t0)
            run = 0
            if w > 0:
                neq = np.nonzero(seq[cur:cur + w] != text[t0:t0 + w])[0]
                run = int(neq[0]) if neq.size else w
            adv[e] = run
            ok[e] = run == rem
            lanes.within[g] += run
            lanes.depth[g] += run
        else:  # KIND_UNIFORM
            within = int(lanes.within[g])
            urem = int(flat.chars_len[nid]) - within
            w = min(urem, rem)
            run = 0
            if w > 0:
                c0 = int(flat.chars_off[nid]) + within
                neq = np.nonzero(seq[cur:cur + w]
                                 != flat.chars_pool[c0:c0 + w])[0]
                run = int(neq[0]) if neq.size else w
            adv[e] = run
            ok[e] = run == w
            lanes.within[g] += run
            lanes.depth[g] += run
            if run == urem:
                lanes.nid[g] = int(flat.child[nid])
                lanes.within[g] = 0
    return adv, ok, changed, is_run


def step(flat: FlatTrees, text: np.ndarray, seq: np.ndarray,
         lanes: Lanes, idx: np.ndarray
         ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Advance lanes ``idx`` by one node-run (LEAF/UNIFORM) or one
    character (DIVERGE).

    Returns ``(adv, ok, changed, is_run)`` over ``idx``: ``adv`` is how
    many characters each lane consumed, ``ok`` lanes reached the end of
    their run/read without a dead end, ``changed`` lanes saw their hit
    count change (LEP; DIVERGE only), ``is_run`` marks LEAF/UNIFORM
    lanes.  The caller advances ``lanes.cur`` by ``adv``; node state
    (``nid``/``within``/``depth``/``count``) is updated here.
    """
    if idx.size <= 24:
        return _step_small(flat, text, seq, lanes, idx)
    nid = lanes.nid[idx]
    kind = flat.kind[nid]
    cur = lanes.cur[idx]
    rem = lanes.stop[idx] - cur
    adv = np.zeros(idx.size, dtype=np.int64)
    ok = np.zeros(idx.size, dtype=bool)
    changed = np.zeros(idx.size, dtype=bool)
    is_run = kind != KIND_DIVERGE

    is_leaf = kind == KIND_LEAF
    if is_leaf.any():
        li = np.nonzero(is_leaf)[0]
        tstart = flat.leaf_text0[nid[li]] + flat.k + lanes.depth[idx[li]]
        wmax = np.minimum(rem[li], text.size - tstart)
        wmax = np.maximum(wmax, 0)
        w = int(wmax.max()) if li.size else 0
        if w > 0:
            ar = np.arange(w, dtype=np.int64)
            valid = ar[None, :] < wmax[:, None]
            sm = seq[np.minimum(cur[li][:, None] + ar[None, :],
                                seq.size - 1)]
            tm = text[np.minimum(tstart[:, None] + ar[None, :],
                                 text.size - 1)]
            run = _run_lengths((sm == tm) & valid)
        else:
            run = np.zeros(li.size, dtype=np.int64)
        adv[li] = run
        ok[li] = run == rem[li]  # consumed the whole read tail
        gl = idx[li]
        lanes.within[gl] += run
        lanes.depth[gl] += run

    is_uni = kind == KIND_UNIFORM
    if is_uni.any():
        ui = np.nonzero(is_uni)[0]
        un = nid[ui]
        urem = flat.chars_len[un] - lanes.within[idx[ui]]
        wmax = np.minimum(urem, rem[ui])
        w = int(wmax.max()) if ui.size else 0
        if w > 0:
            ar = np.arange(w, dtype=np.int64)
            valid = ar[None, :] < wmax[:, None]
            sm = seq[np.minimum(cur[ui][:, None] + ar[None, :],
                                seq.size - 1)]
            cm = flat.chars_pool[
                np.minimum((flat.chars_off[un] + lanes.within[idx[ui]])
                           [:, None] + ar[None, :],
                           flat.chars_pool.size - 1)]
            run = _run_lengths((sm == cm) & valid)
        else:
            run = np.zeros(ui.size, dtype=np.int64)
        adv[ui] = run
        # ok: either the node's run is fully matched (descend) or the
        # read tail ran out mid-run with no mismatch.
        ok[ui] = run == wmax
        gl = idx[ui]
        lanes.within[gl] += run
        lanes.depth[gl] += run
        # Eager settle: a uniform run consumed to its end lands on the
        # single child now (traffic accounting aside, this is identical
        # to the scalar cursor's deferred descent -- see flat module doc).
        done = run == urem
        dl = gl[done]
        lanes.nid[dl] = flat.child[un[done]]
        lanes.within[dl] = 0

    is_div = ~is_run
    if is_div.any():
        di = np.nonzero(is_div)[0]
        ch = flat.children[nid[di], seq[cur[di]]]
        have = ch >= 0
        cnt = np.where(have, flat.count[np.maximum(ch, 0)], 0)
        good_mask = have & (cnt >= lanes.min_hits[idx[di]])
        good = di[good_mask]
        adv[good] = 1
        ok[good] = True
        gl = idx[good]
        new_count = cnt[good_mask]
        changed[good] = new_count != lanes.count[gl]
        lanes.nid[gl] = ch[good_mask]
        lanes.within[gl] = 0
        lanes.count[gl] = new_count
        lanes.depth[gl] += 1

    return adv, ok, changed, is_run


def drain(flat: FlatTrees, text: np.ndarray, seq: np.ndarray,
          lanes: Lanes,
          record_leps: bool) -> "tuple[np.ndarray, np.ndarray]":
    """Run every live lane until it dies or exhausts ``[cur, stop)``.

    Returns ``(lep_lane, lep_pos)`` arrays of hit-count-change events
    (absolute positions in ``seq``), in step order -- per lane that is
    ascending position order, matching the scalar LEP list.
    """
    lep_lane_parts: "list[np.ndarray]" = []
    lep_pos_parts: "list[np.ndarray]" = []
    alive = lanes.alive
    while True:
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        lanes.occ_live += int(idx.size)
        lanes.occ_slots += int(alive.size)
        adv, ok, changed, _is_run = step(flat, text, seq, lanes, idx)
        if record_leps and changed.any():
            hit = idx[changed]
            lep_lane_parts.append(hit)
            lep_pos_parts.append(lanes.cur[hit].copy())
        lanes.cur[idx] += adv
        lanes.steps[idx] += adv
        alive[idx[~ok]] = False
        still = idx[ok]
        alive[still[lanes.cur[still] >= lanes.stop[still]]] = False
    if not lep_lane_parts:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    return (np.concatenate(lep_lane_parts),
            np.concatenate(lep_pos_parts))


class ArenaCursor:
    """Scalar accessors over the arena, for walks that are one
    dependency chain rather than a lane set (:func:`last_chain`).

    The integer columns are ``memoryview``s of the arena's own arrays --
    zero-copy, valid on the read-only shm-attached columns of a pool
    worker -- so indexing one yields a Python ``int`` with no numpy
    scalar in between; the reference text and the chars pool are
    ``bytes``, so a LEAF/UNIFORM run is one slice comparison.  Built
    once per index (:func:`arena_cursor`), never per batch.
    """

    __slots__ = ("k", "kind", "children", "count", "child", "chars_off",
                 "chars_len", "leaf_text0", "chars", "text")

    def __init__(self, flat: FlatTrees, text: np.ndarray) -> None:
        self.k = flat.k
        self.kind = memoryview(flat.kind)
        #: ``children[4 * nid + c]``: the ``(n, 4)`` column, flattened.
        self.children = memoryview(flat.children.reshape(-1))
        self.count = memoryview(flat.count)
        self.child = memoryview(flat.child)
        self.chars_off = memoryview(flat.chars_off)
        self.chars_len = memoryview(flat.chars_len)
        self.leaf_text0 = memoryview(flat.leaf_text0)
        self.chars = flat.chars_pool.astype(np.uint8).tobytes()
        self.text = text.astype(np.uint8).tobytes()


def arena_cursor(index: ErtIndex) -> ArenaCursor:
    """The scalar cursor of ``index`` (cached on it, like the arena)."""
    cursor = index.cursor
    if not isinstance(cursor, ArenaCursor):
        cursor = index.cursor = ArenaCursor(flat_trees(index), index.text)
    return cursor


# repro: hot -- one call per read, one iteration per node visit.
def last_chain(cursor: ArenaCursor, seq: bytes, base: int, stop: int,
               vx: "list[int]", vroot: "list[int]", vcount: "list[int]",
               p: int, p_end: int, min_len: int, max_intv: int
               ) -> "tuple[list[tuple[int, int, int, int]], int, int]":
    """One read's whole LAST scan (``ErtSeedingEngine.last_seed`` driven
    by ``seed_read``'s round 3) as a single chain over ``cursor``.

    The read is ``seq[base:stop]``.  ``vx[p:p_end]`` are its viable
    launch offsets in ascending order -- the positions whose k-mer is
    fully present; any other launch fails at once and the scan moves on
    by one -- with the root node and k-mer count of each in
    ``vroot``/``vcount``.  A launch walks until the match is at least
    ``min_len`` long with fewer than ``max_intv`` hits (emit, relaunch
    at its end) or dies (relaunch one past its start).  Hit counts are
    constant inside a LEAF/UNIFORM run, so a run that carries a match
    across ``min_len`` with few enough hits emits at exactly
    ``min_len``, where the scalar cursor's per-character check would.

    Returns ``(emits, steps, launches)``: ``(start, end, nid, count)``
    per emitted seed (read-relative interval, node and hit count for
    the cache preseed), characters consumed by advances, and launches
    made.  ``min_hits`` is 1 throughout LAST, so every existing child
    is accepted.
    """
    k = cursor.k
    kind = cursor.kind
    children = cursor.children
    counts = cursor.count
    child = cursor.child
    chars_off = cursor.chars_off
    chars_len = cursor.chars_len
    leaf_text0 = cursor.leaf_text0
    chars = cursor.chars
    text = cursor.text
    emits: "list[tuple[int, int, int, int]]" = []
    steps = 0
    launches = 0
    nxt = 0  # lowest offset the next launch may start at
    while True:
        # Launch offsets are visited monotonically: a pointer into the
        # viable list, not a search.
        while p < p_end and vx[p] < nxt:
            p += 1
        if p == p_end:
            return emits, steps, launches
        x = vx[p]
        launches += 1
        start = base + x
        nid = vroot[p]
        count = vcount[p]
        within = 0
        depth = 0
        cur = start + k
        nxt = x + 1  # unless this launch emits
        while True:
            if count < max_intv and cur - start >= min_len:
                nxt = x + (cur - start)
                emits.append((x, nxt, nid, count))
                break
            if cur >= stop:
                break
            node_kind = kind[nid]
            if node_kind == KIND_DIVERGE:
                ch = children[4 * nid + seq[cur]]
                if ch < 0:
                    break
                nid = ch
                count = counts[ch]
                within = 0
                depth += 1
                cur += 1
                steps += 1
                continue
            if node_kind == KIND_LEAF:
                r0 = leaf_text0[nid] + k + depth
                need = stop - cur
                w = min(need, len(text) - r0)
                ref = text
            else:  # KIND_UNIFORM
                r0 = chars_off[nid] + within
                need = w = min(chars_len[nid] - within, stop - cur)
                ref = chars
            run = 0
            if w > 0:
                mine = seq[cur:cur + w]
                theirs = ref[r0:r0 + w]
                if mine == theirs:
                    run = w
                else:  # first mismatch; they differ, so this ends
                    while mine[run] == theirs[run]:
                        run += 1
            within += run
            depth += run
            cur += run
            steps += run
            if node_kind == KIND_UNIFORM and within == chars_len[nid]:
                nid = child[nid]
                within = 0
            if count < max_intv and cur - start >= min_len:
                nxt = x + min_len
                emits.append((x, nxt, nid, count))
                break
            if run < need:
                break
