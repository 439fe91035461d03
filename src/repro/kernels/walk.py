"""The one production walk over the flat arena: a per-read cursor.

The paper's seeding machine is a set of independent per-read contexts,
each a small state machine walking one radix tree (§IV).  This module is
that state machine in software: :class:`ArenaCursor` exposes the index
table, the jump tables and the arena columns as zero-copy
``memoryview``s and the reference text and chars pool as ``bytes``;
:func:`walk` is the single loop every search runs -- forward pivots,
backward searches (over the reverse complement), exact ``locate`` walks
and LAST launches differ only in its arguments.

The loop works at *node-run* granularity, which is where the ERT's
multi-character lookup (§III-A2) pays off for a software kernel too:

* the first ``k`` characters cost one index-table lookup (the rolling
  k-mer codes come from ``begin_batch``), optionally followed by one
  second-level table landing (§III-E);
* a DIVERGE node consumes one character: pick the child, honour
  ``min_hits``, report a hit-count change (the LEP signal);
* a LEAF (early path compression: the rest of the match is compared
  against the reference text) or UNIFORM node (one merged character run)
  is one ``bytes`` slice comparison, with a per-character first-mismatch
  loop only when the slices differ.

Hit counts are constant inside a LEAF/UNIFORM run, so LEPs and count
updates occur at DIVERGE steps only.  A walk that dies stops *at* the
failing character with its node and count unchanged -- like the scalar
:class:`~repro.core.walker.TreeCursor`'s failed ``advance`` -- so the
caller can gather the hits of what did match from the node returned.
States are eagerly settled (see :mod:`repro.core.arena`).
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
from repro.core.index import EntryKind, ErtIndex

_TABLE = int(EntryKind.TABLE)


class ArenaCursor:
    """Scalar accessors over one index: the first-level table, the jump
    tables and the arena.

    The integer columns are ``memoryview``s of the index's own arrays --
    zero-copy, valid on the read-only shm-attached columns of a pool
    worker, and indexing one yields a Python ``int`` with no numpy
    scalar in between.  Built once per index (:func:`arena_cursor`),
    never per batch.
    """

    __slots__ = ("k", "x", "prefix_len", "lep_bits", "kmer_count",
                 "entry_kind", "prefix_counts", "roots", "table_slot",
                 "jt_matched", "jt_lep", "jt_node", "jt_within", "jt_depth",
                 "jt_count", "kind", "children", "count", "child",
                 "chars_off", "chars_len", "leaf_text0", "pos_off",
                 "pool", "chars", "text")

    def __init__(self, index: ErtIndex, flat: FlatTrees) -> None:
        self.k = flat.k
        self.x = flat.table_x
        self.prefix_len = memoryview(index.prefix_len)
        self.lep_bits = memoryview(index.lep_bits)
        self.kmer_count = memoryview(index.kmer_count)
        self.entry_kind = memoryview(index.entry_kind)
        #: ``prefix_counts[length - 1][code >> 2 * (k - length)]``.
        self.prefix_counts = [memoryview(counts)
                              for counts in index.prefix_counts]
        self.roots = memoryview(flat.roots)
        self.table_slot = memoryview(flat.table_slot)
        #: ``jt_*[slot * 4**x + subcode]``: the ``(n, 4**x)`` tables,
        #: flattened.
        self.jt_matched = memoryview(flat.jt_matched.reshape(-1))
        self.jt_lep = memoryview(flat.jt_lep.reshape(-1))
        self.jt_node = memoryview(flat.jt_node.reshape(-1))
        self.jt_within = memoryview(flat.jt_within.reshape(-1))
        self.jt_depth = memoryview(flat.jt_depth.reshape(-1))
        self.jt_count = memoryview(flat.jt_count.reshape(-1))
        self.kind = memoryview(flat.kind)
        #: ``children[4 * nid + c]``: the ``(n, 4)`` column, flattened.
        self.children = memoryview(flat.children.reshape(-1))
        self.count = memoryview(flat.count)
        self.child = memoryview(flat.child)
        self.chars_off = memoryview(flat.chars_off)
        self.chars_len = memoryview(flat.chars_len)
        self.leaf_text0 = memoryview(flat.leaf_text0)
        self.pos_off = memoryview(flat.pos_off)
        self.pool = memoryview(flat.pool)
        self.chars = flat.chars_pool.tobytes()
        self.text = index.text.astype(np.uint8).tobytes()


def arena_cursor(index: ErtIndex) -> ArenaCursor:
    """The scalar cursor of ``index`` (cached on it, like the arena)."""
    cursor = index.cursor
    if not isinstance(cursor, ArenaCursor):
        cursor = index.cursor = ArenaCursor(index, flat_trees(index))
    return cursor


# repro: hot -- one call per search, one iteration per node visit.
def walk(cursor: ArenaCursor, seq: bytes, codes: "memoryview | None",
         start: int, stop: int, min_hits: int = 1,
         leps: "list[int] | None" = None, jump: bool = False,
         min_len: int = 0, max_intv: int = 0
         ) -> "tuple[int, int, int, int]":
    """Longest match of ``seq[start:stop]`` with at least ``min_hits``
    hits; returns ``(end, nid, count, steps)``.

    ``codes[i]`` is the packed k-mer at ``seq[i:i + k]``.  ``nid`` is
    the arena node the match ended in with its hit ``count``, or -1 when
    the match never left the index table (or died inside a jump-table
    window); ``steps`` is the number of characters consumed by tree
    advances.  With ``leps`` given, the LEP positions of the match are
    appended to it (:mod:`repro.seeding.engine` convention).  ``jump``
    allows the second-level table landing; it needs ``min_hits == 1``
    and ``stop == len(seq)``.

    ``max_intv > 0`` is the LAST stop condition: the walk ends as soon
    as the match is at least ``min_len`` long with fewer than
    ``max_intv`` hits.  A run that carries the match across ``min_len``
    with few enough hits ends at exactly ``min_len``, where a
    per-character check would; whenever the walk ends any other way the
    condition is false on what it returns, so the caller tests it.
    """
    k = cursor.k
    tail = stop - start
    if tail >= k:
        tail = k
        code = codes[start]
    else:  # window cut by the sequence end: right-pad with A
        code = 0
        for c in seq[start:stop]:
            code = (code << 2) | c
        code <<= 2 * (k - tail)
    if min_hits == 1:
        matched = cursor.prefix_len[code]
        if matched > tail:
            matched = tail
        if leps is not None and matched > 1:
            bits = cursor.lep_bits[code]
            leps.extend(start + l for l in range(1, matched)
                        if (bits >> (l - 1)) & 1)
    else:
        # Reseeding: the entry's change bits carry no counts, so consult
        # the prefix-count tables.
        matched = prev = 0
        for length in range(1, tail + 1):
            have = (cursor.kmer_count[code] if length == k else
                    cursor.prefix_counts[length - 1][
                        code >> 2 * (k - length)])
            if have < min_hits:
                break
            if leps is not None and length > 1 and have != prev:
                leps.append(start + length - 1)
            prev = have
            matched = length
    pos = start + matched
    nid = -1
    count = within = depth = 0
    if matched == k:
        x = cursor.x
        if (jump and cursor.entry_kind[code] == _TABLE
                and stop - pos >= x):
            # The x characters after the k-mer are the low bits of the
            # k-mer code x positions on.
            j = ((cursor.table_slot[code] << 2 * x)
                 + (codes[start + x] & ((1 << 2 * x) - 1)))
            landed = cursor.jt_matched[j]
            if leps is not None:
                bits = cursor.jt_lep[j]
                leps.extend(pos + t for t in range(landed)
                            if (bits >> t) & 1)
            pos += landed
            if landed == x:
                nid = cursor.jt_node[j]
                within = cursor.jt_within[j]
                depth = cursor.jt_depth[j]
                count = cursor.jt_count[j]
        else:
            nid = cursor.roots[code]
            count = cursor.count[nid]
    first = pos
    if nid >= 0:
        kind = cursor.kind
        children = cursor.children
        counts = cursor.count
        chars_len = cursor.chars_len
        while True:
            if count < max_intv and pos - start >= min_len:
                break
            if pos >= stop:
                break
            node_kind = kind[nid]
            if node_kind == KIND_DIVERGE:
                ch = children[4 * nid + seq[pos]]
                if ch < 0:
                    break
                have = counts[ch]
                if have < min_hits:
                    break
                if have != count:
                    if leps is not None:
                        leps.append(pos)
                    count = have
                nid = ch
                within = 0
                depth += 1
                pos += 1
                continue
            if node_kind == KIND_LEAF:
                ref = cursor.text
                r0 = cursor.leaf_text0[nid] + k + depth
                need = w = stop - pos
                if w > len(ref) - r0:  # the text ends first: a dead end
                    w = len(ref) - r0
            else:  # KIND_UNIFORM
                ref = cursor.chars
                r0 = cursor.chars_off[nid] + within
                need = w = chars_len[nid] - within
                if w > stop - pos:
                    need = w = stop - pos
            run = 0
            if w > 0:
                mine = seq[pos:pos + w]
                theirs = ref[r0:r0 + w]
                if mine == theirs:
                    run = w
                else:  # first mismatch; they differ, so this ends
                    while mine[run] == theirs[run]:
                        run += 1
            within += run
            depth += run
            pos += run
            if node_kind == KIND_UNIFORM and within == chars_len[nid]:
                nid = cursor.child[nid]
                within = 0
            if count < max_intv and pos - start >= min_len:
                first -= pos - (start + min_len)  # steps count the run
                pos = start + min_len
                break
            if run < need:
                break
    if leps is not None and pos > start and (not leps or leps[-1] != pos):
        leps.append(pos)
    return pos, nid, count, pos - first
