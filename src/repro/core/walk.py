"""The one walk over the flat arena, and the fetch model that charges it.

The paper's seeding machine is a set of independent per-read contexts,
each a small state machine walking one radix tree (§IV).  This module is
that state machine in software: over the index's
:class:`~repro.core.arena.ArenaCursor` (the index table, the jump tables
and the arena columns as zero-copy ``memoryview``s, the reference text
and chars pool as ``bytes``), :func:`walk` is the single loop every
search runs -- forward pivots, backward searches (over the reverse
complement), exact ``locate`` walks and LAST launches differ only in its
arguments.

The loop works at *node-run* granularity, which is where the ERT's
multi-character lookup (§III-A2) pays off for a software walk too:

* the first ``k`` characters cost one index-table lookup (the rolling
  k-mer codes come from the engine), optionally followed by one
  second-level table landing (§III-E);
* a DIVERGE node consumes one character: pick the child, honour
  ``min_hits``, report a hit-count change (the LEP signal);
* a LEAF (early path compression: the rest of the match is compared
  against the reference text) or UNIFORM node (one merged character run)
  is one ``bytes`` slice comparison, with a per-character first-mismatch
  loop only when the slices differ.

Hit counts are constant inside a LEAF/UNIFORM run, so LEPs and count
updates occur at DIVERGE steps only.  A walk that dies stops *at* the
failing character with its node and count unchanged, so the caller can
gather the hits of what did match from the node returned.  States are
eagerly settled (see :mod:`repro.core.arena`).

A :class:`FetchModel`, passed only when a memory tracer or reuse cache
is attached to the index, is told what the walk reads -- the index
entry, reseed prefix-count probes, a table landing, each node at which
it examines a character, each reference character a LEAF compares --
and charges it the way the hardware Tree Walker fetches (§IV-B): a node
is fetched when a character first needs its data, one access per cache
line not just touched, so a UNIFORM run or a leaf comparison costs one
fetch however many characters it resolves and nodes packed into one
tile (§III-D) cost no extra line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.arena import (
    CHILD_RANK,
    FANOUT,
    KIND_LEAF,
    KIND_UNIFORM,
    ArenaCursor,
    arena_cursor,
)
from repro.core.index import (
    PHASE_GATHER,
    PHASE_ROOT,
    PHASE_TRAVERSAL,
    EntryKind,
    ErtIndex,
)

if TYPE_CHECKING:
    from repro.seeding.engine import EngineStats

_TABLE = int(EntryKind.TABLE)
_FANOUT = np.array(FANOUT)

LINE = 64


class FetchModel:
    """The modelled memory accesses of one engine's walks.

    Each search starts at :meth:`entry`; its line-dedup state (the tree
    line and the reference line last touched) lasts for that search and
    carries into its gather.  Node fetches, leaf line fetches and tree
    root fetches are counted into ``stats``.
    """

    def __init__(self, index: ErtIndex, stats: EngineStats) -> None:
        self.index = index
        self.stats = stats
        #: The node whose data the walk holds: the root or landing node,
        #: then each node it examined a character at.
        self.node = -1
        self._code = 0
        self._base = 0
        self._last_line = -1
        self._last_ref_line = -1
        self._parents: "dict[int, int]" = {}

    @property
    def arena(self) -> ArenaCursor:
        return arena_cursor(self.index)

    # repro: hot -- one call per search.
    def entry(self, code: int) -> None:
        """A search starts: its first-level index entry."""
        self._code = code
        self.node = -1
        self._last_line = self._last_ref_line = -1
        self.index.trace_index_entry(code)

    def probe(self, length: int, value: int) -> None:
        """A reseed threshold check on the ``length``-character prefix
        ``value`` (the index entry itself at length k)."""
        if length == self.index.config.k:
            self.index.trace_index_entry(value)
        else:
            self.index.trace_prefix_count(length, value)

    def table(self, code: int, subcode: int) -> None:
        self.index.trace_table_entry(code, subcode)

    # repro: hot -- one call per table landing.
    def land(self, nid: int, within: int) -> None:
        """A table landing on settled node ``nid``: the jump skipped the
        top of the tree, not the node it lands on.  At ``within == 0``
        the walk just stepped into ``nid`` and has not needed its data
        yet, so what is fetched is its parent."""
        if within == 0:
            nid = self._parent(nid)
        self._base = int(self.index.tree_base[self._code])
        self._fetch(nid, PHASE_TRAVERSAL)
        self.node = nid

    # repro: hot -- one call per walk that enters a tree at its root.
    def root(self, nid: int) -> None:
        """The walk enters the tree at its root.  A unique k-mer's one
        reference pointer lives inline in the 8-byte index entry (Fig 4,
        early path compression at the root), so it costs no tree access;
        every other root is fetched."""
        arena = self.arena
        self._base = int(self.index.tree_base[self._code])
        if arena.kind[nid] != KIND_LEAF or arena.count[nid] != 1:
            self._fetch(nid, PHASE_ROOT)
            self.stats.tree_root_fetches += 1
        self.node = nid

    # repro: hot -- one call per node a walk examines.
    def step(self, nid: int, pos: int) -> None:
        """The walk examines read character ``pos`` at node ``nid``."""
        if nid != self.node:
            self._fetch(nid, PHASE_TRAVERSAL)
            self.node = nid

    # repro: hot -- one call per leaf comparison.
    def ref(self, text_pos: int, n: int) -> None:
        """A LEAF compares ``n`` reference characters from ``text_pos``:
        one fetch per 2-bit-packed line not just touched."""
        if n <= 0:
            return
        first = (text_pos // 4) // LINE
        last = ((text_pos + n - 1) // 4) // LINE
        for line in range(first, last + 1):
            if line != self._last_ref_line:
                self.index.trace_ref_line(line * LINE * 4)
                self._last_ref_line = line
                self.stats.leaf_fetches += 1

    # repro: hot -- one iteration per gathered node.
    def gather(self, nid: int) -> None:
        """The Leaf Gatherer's depth-first search of ``nid``'s subtree
        (§IV-B): every node but the one the walk holds is fetched."""
        arena = self.arena
        stack = [nid]
        while stack:
            nid = stack.pop()
            if nid != self.node:
                self._fetch(nid, PHASE_GATHER)
            kind = arena.kind[nid]
            if kind > KIND_LEAF:  # DIVERGE
                stack.extend(arena.children(nid))
            elif kind == KIND_UNIFORM:
                stack.append(nid + 1)

    # repro: hot -- one call per node fetch.
    def _fetch(self, nid: int, phase: str) -> None:
        """One access per cache line of the node that is not the line
        most recently touched."""
        self.stats.nodes_visited += 1
        index = self.index
        layout = index.layout
        start = self._base + int(layout.offset[nid])
        first = start // LINE
        last = (start + int(layout.nbytes[nid]) - 1) // LINE
        region = index.trees_region
        for line in range(first, last + 1):
            if line != self._last_line:
                index.trace(region.base, line * LINE, LINE, phase,
                            region.name)
        self._last_line = last

    def _parent(self, nid: int) -> int:
        """The parent of non-root node ``nid``: in preorder a node
        following an inner node is its first child; any other node is a
        later child of the DIVERGE node whose ``kids`` run holds it."""
        arena = self.arena
        if arena.kind[nid - 1] != KIND_LEAF:
            return nid - 1
        parent = self._parents.get(nid)
        if parent is None:
            flat = self.index.flat
            slot = int(np.flatnonzero(flat.kids == nid)[0])
            off = flat.off[:nid].astype(np.int64)
            later = _FANOUT[flat.kind[:nid]] - 1  # pooled children
            owner = ((flat.kind[:nid] > KIND_LEAF) & (off <= slot)
                     & (slot < off + later))
            parent = self._parents[nid] = int(np.flatnonzero(owner)[0])
        return parent


def _set_bits(cursor: ArenaCursor, bits: int) -> "tuple[int, ...]":
    """Fill ``cursor.set_bits[bits]``."""
    positions = cursor.set_bits[bits] = tuple(
        t for t in range(bits.bit_length()) if (bits >> t) & 1)
    return positions


# repro: hot -- one call per search, one iteration per node visit.
def walk(cursor: ArenaCursor, seq: bytes, codes: "Sequence[int] | None",
         start: int, stop: int, min_hits: int = 1,
         leps: "list[int] | None" = None, jump: bool = False,
         min_len: int = 0, max_intv: int = 0,
         fetch: "FetchModel | None" = None
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

    ``fetch`` is told everything the walk reads (module docstring).
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
    if fetch is not None:
        fetch.entry(code)
    if min_hits == 1:
        matched = cursor.prefix_len[code]
        if matched > tail:
            matched = tail
        if leps is not None and matched > 1:
            bits = cursor.lep_bits[code]
            if bits:  # bit l - 1: an LEP at start + l, for l < matched
                for t in (cursor.set_bits.get(bits)
                          or _set_bits(cursor, bits)):
                    if t >= matched - 1:
                        break
                    leps.append(start + 1 + t)
    else:
        # Reseeding: the entry's change bits carry no counts, so consult
        # the prefix-count tables (the length-k one is the k-mer counts).
        matched = prev = 0
        for length in range(1, tail + 1):
            value = code >> 2 * (k - length)
            if fetch is not None:
                fetch.probe(length, value)
            have = cursor.prefix_counts[length - 1][value]
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
            subcode = codes[start + x] & ((1 << 2 * x) - 1)
            if fetch is not None:
                fetch.table(code, subcode)
            j = (cursor.table_slot[code] << 2 * x) + subcode
            landed = cursor.jt_matched[j]
            if leps is not None:
                bits = cursor.jt_lep[j]
                if bits:  # bit t: an LEP at pos + t, for t < landed
                    for t in (cursor.set_bits.get(bits)
                              or _set_bits(cursor, bits)):
                        if t >= landed:
                            break
                        leps.append(pos + t)
            pos += landed
            if landed == x:
                nid = cursor.jt_node[j]
                within = cursor.jt_within[j]
                depth = cursor.jt_depth[j]
                count = cursor.jt_count[j]
                if fetch is not None:
                    fetch.land(nid, within)
        else:
            nid = cursor.roots[code]
            count = cursor.count[nid]
            if fetch is not None:
                fetch.root(nid)
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
            if fetch is not None:
                fetch.step(nid, pos)
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
            if fetch is not None and node_kind == KIND_LEAF:
                # The mismatching character was read too; LAST reads no
                # character past ``min_len``.
                seen = run + 1 if run < w else run
                if count < max_intv and pos + run - start >= min_len:
                    seen = start + min_len - pos
                fetch.ref(r0, seen)
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
