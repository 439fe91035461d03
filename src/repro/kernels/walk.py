"""The one production walk over the flat arena: a per-read cursor.

The paper's seeding machine is a set of independent per-read contexts,
each a small state machine walking one radix tree (§IV).  This module is
that state machine in software: over the index's
:class:`~repro.core.arena.ArenaCursor` (the index table, the jump tables
and the arena columns as zero-copy ``memoryview``s, the reference text
and chars pool as ``bytes``), :func:`walk` is the single loop every
search runs -- forward pivots,
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

from repro.core.arena import (
    CHILD_RANK,
    KIND_LEAF,
    KIND_UNIFORM,
    ArenaCursor,
)
from repro.core.index import EntryKind

_TABLE = int(EntryKind.TABLE)


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
        kids = cursor.kids
        off = cursor.off
        counts = cursor.count
        chars_len = cursor.chars_len
        child_rank = CHILD_RANK
        while True:
            if count < max_intv and pos - start >= min_len:
                break
            if pos >= stop:
                break
            node_kind = kind[nid]
            if node_kind > KIND_LEAF:  # DIVERGE, under its child bitmap
                rank = child_rank[node_kind + seq[pos]]
                if rank < 0:
                    break
                ch = kids[off[nid] + rank - 1] if rank else nid + 1
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
                r0 = off[nid] + k + depth
                need = w = stop - pos
                if w > len(ref) - r0:  # the text ends first: a dead end
                    w = len(ref) - r0
            else:  # KIND_UNIFORM
                ref = cursor.chars
                r0 = off[nid] + within
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
                nid += 1  # preorder: a run's one child follows it
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
