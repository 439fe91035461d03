"""Structure-of-arrays form of the ERT radix trees: the flat arena.

The arena is the forest as parallel numpy arrays, one row per node,
which the walk indexes by node id (:class:`ArenaCursor`, read by
:func:`repro.core.walk.walk`).  Nodes are
numbered in preorder, children in character order, so a UNIFORM node's
one child and a DIVERGE node's first child are both ``nid + 1``.  The
node columns:

* ``kind``: the DIVERGE / UNIFORM / LEAF discriminant in bits 0-1; a
  DIVERGE node's child bitmap (bit ``2 + c`` set when character ``c``
  has a child) in bits 2-5, the paper's node header (§III).  The byte is
  1 (UNIFORM), 2 (LEAF) or ``bitmap << 2`` with a non-empty bitmap
  (DIVERGE), so it is above :data:`KIND_LEAF` exactly when the node
  branches;
* ``count``: occurrences below the node (LEP + min-hit checks);
* ``off``, by kind: a UNIFORM node's offset into ``chars_pool`` (its
  merged character run is ``chars_len`` characters there); a DIVERGE
  node's first slot in ``kids``, the dense pool of every child after
  the first (``popcount(bitmap) - 1`` slots a node, in character
  order); a LEAF's first occurrence position (matching proceeds against
  the reference text, early path compression §III-A2);
* ``pos_off`` into ``pool``: the ``count`` occurrence positions of the
  node's subtree, contiguous because the pool is filled in DFS (Euler)
  order, so a gather is one slice + sort (a modelled gather still
  visits the subtree, but only to charge its fetches);
* ``offset``: the node's byte offset in its tree's blob of the modelled
  trees region (:mod:`repro.core.layout`), laid out once, at build.

Child ``c`` of a DIVERGE node is one lookup: :data:`CHILD_RANK` at
``kind + c`` is its rank among the node's children, -1 for a missing
branch (a dead end), 0 for ``nid + 1``, ``r`` for ``kids[off + r - 1]``.
Second-level jump tables (§III-E) are dense ``(n_tables, 4^x)`` arrays
so a walk resolves the x-character jump with one lookup;
:func:`jump_columns` computes them by walking the columns.

The arena is the only form the forest is built, stored and walked in.
:mod:`repro.core.builder` emits the columns straight from the suffix
sort's LCP intervals, at the widths :data:`ARENA_DTYPES` fixes:
``kind``, ``chars_len`` and ``chars_pool`` are uint8, everything that
holds a node id, an offset, a count or a text position is int32, and a
forest that does not fit is an :class:`ArenaLimitError`
(:func:`check_fits`), not a wider column.  A loaded index carries the
stored columns as they lie (read-only views into the mapped index file,
so N pool workers walk one physical arena in the page cache).  No walk
makes a node object.  The module lives in :mod:`repro.core` rather than
next to the batched kernels because the builder, the index formats and
the walk need it and core may not import the kernels (ERT005).

States are *eagerly settled*: a walk that chose a DIVERGE child, or used
up a UNIFORM run, stands on the child at once, though the hardware
fetches that child only when the next character needs it.  Settling
never changes match outcomes, counts, or subtree position sets (a
uniform node's subtree equals its child's); the walk's fetch model
(:class:`repro.core.walk.FetchModel`) charges the deferred fetch where
the hardware makes it.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.core.index import ErtIndex

KIND_DIVERGE = 0
KIND_UNIFORM = 1
KIND_LEAF = 2

#: ``CHILD_RANK[kind + c]`` for a DIVERGE node's kind byte (its bitmap
#: ``b`` shifted up by 2, so the index is ``4 * b + c``): the rank of
#: child ``c`` among the node's children, -1 when it has none.
CHILD_RANK = tuple(bin(bitmap & ((1 << c) - 1)).count("1")
                   if bitmap >> c & 1 else -1
                   for bitmap in range(16) for c in range(4))
_CHILD_RANK = np.array(CHILD_RANK, dtype=np.int64)


def _fanout(byte: int) -> int:
    if byte in (KIND_UNIFORM, KIND_LEAF):
        return 2 - byte
    if byte & 3 or not 4 <= byte < 64:
        return -1
    return bin(byte >> 2).count("1")


#: Per kind byte: how many children the node has (DIVERGE: its
#: bitmap's popcount, UNIFORM: 1, LEAF: 0); -1 for a byte no node has.
FANOUT = tuple(_fanout(byte) for byte in range(256))

#: What an int32 column cannot hold: the text length and the sizes of
#: the node, position and character pools all stay below it.
ID_LIMIT = 2 ** 31


class ArenaLimitError(ValueError):
    """Raised when a forest does not fit the arena's int32 columns."""


class FlatTrees(NamedTuple):
    """The arena (see module docstring).  Read-only; shared by every
    walk over the same index."""

    k: int
    table_x: int
    kind: np.ndarray
    count: np.ndarray
    kids: np.ndarray
    off: np.ndarray
    chars_len: np.ndarray
    chars_pool: np.ndarray
    pos_off: np.ndarray
    pool: np.ndarray
    offset: np.ndarray
    #: Root node id per k-mer code (-1: no tree).
    roots: np.ndarray
    #: Jump-table row per k-mer code (-1: no table), then the tables.
    table_slot: np.ndarray
    jt_matched: np.ndarray
    jt_lep: np.ndarray
    jt_node: np.ndarray
    jt_within: np.ndarray
    jt_depth: np.ndarray
    jt_count: np.ndarray


#: The arena's arrays, in the order both index formats store them.
ARENA_COLUMNS = tuple(name for name in FlatTrees._fields
                      if name not in ("k", "table_x"))

#: The width every column is compiled, stored and walked at: node ids,
#: offsets, counts and text positions are ``_ID``.
_ID = np.dtype(np.int32)
ARENA_DTYPES = {
    name: np.dtype(np.uint8) if name in ("kind", "chars_len", "chars_pool")
    else _ID
    for name in ARENA_COLUMNS}


def flat_trees(index: ErtIndex) -> FlatTrees:
    """The arena of ``index``: every built, loaded or attached index is
    assembled over one (:mod:`repro.core.io`)."""
    return index.flat


def children_of(nodes: "Mapping[str, np.ndarray]", nid: np.ndarray,
                c: np.ndarray) -> np.ndarray:
    """Child ``c[i]`` of node ``nid[i]``, elementwise; -1 where there is
    none (every UNIFORM and LEAF node, whose kind byte reads as an empty
    bitmap)."""
    nid = np.asarray(nid, dtype=np.int64)
    rank = _CHILD_RANK[nodes["kind"][nid] & 0xFC | c]
    child = np.where(rank == 0, nid + 1, -1)
    more = np.flatnonzero(rank > 0)
    child[more] = nodes["kids"][nodes["off"][nid[more]] + rank[more] - 1]
    return child


def check_fits(text_size: int, n_nodes: int, pool_size: int,
               chars_size: int) -> None:
    """Refuse a forest whose text or node, position or character pool
    an int32 column cannot address."""
    largest = max(text_size, n_nodes, pool_size, chars_size)
    if largest >= ID_LIMIT:
        raise ArenaLimitError(
            f"the forest does not fit the arena: its text or one of its "
            f"node, position and character pools holds {largest:,} "
            f"entries, and a column addresses fewer than {ID_LIMIT:,}")


class ArenaCursor:
    """Scalar accessors over one index: the first-level table, the jump
    tables and the arena.

    The integer columns are ``memoryview``s of the index's own arrays --
    zero-copy, valid on the read-only mapped columns of a loaded index,
    and indexing one yields a Python ``int`` with no numpy
    scalar in between.  Built once per index (:func:`arena_cursor`),
    never per batch or per walk.
    """

    __slots__ = ("k", "x", "prefix_len", "lep_bits", "kmer_count",
                 "entry_kind", "prefix_counts", "roots", "table_slot",
                 "jt_matched", "jt_lep", "jt_node", "jt_within", "jt_depth",
                 "jt_count", "kind", "kids", "off", "count", "chars_len",
                 "pos_off", "pool", "chars", "text", "set_bits")

    def __init__(self, index: ErtIndex) -> None:
        flat = index.flat
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
        self.kids = memoryview(flat.kids)
        self.off = memoryview(flat.off)
        self.count = memoryview(flat.count)
        self.chars_len = memoryview(flat.chars_len)
        self.pos_off = memoryview(flat.pos_off)
        self.pool = memoryview(flat.pool)
        self.chars = flat.chars_pool.tobytes()
        self.text = index.text.astype(np.uint8).tobytes()
        #: ``bits -> the positions of its set bits``, ascending: the LEP
        #: offsets a ``lep_bits`` or ``jt_lep`` value encodes, filled by
        #: :func:`~repro.core.walk.walk` as it meets values (one entry
        #: per distinct value met).
        self.set_bits: "dict[int, tuple[int, ...]]" = {}

    def children(self, nid: int) -> "list[int]":
        """The children of DIVERGE node ``nid``, in character order."""
        off = self.off[nid]
        return [nid + 1, *self.kids[off:off + FANOUT[self.kind[nid]] - 1]]


def arena_cursor(index: ErtIndex) -> ArenaCursor:
    """The column accessor of ``index`` (cached on it, like the arena)."""
    cursor = index.cursor
    if not isinstance(cursor, ArenaCursor):
        cursor = index.cursor = ArenaCursor(index)
    return cursor


def jump_columns(nodes: "Mapping[str, np.ndarray]", text: np.ndarray,
                 k: int, x: int, codes: np.ndarray,
                 n_entries: int) -> "dict[str, np.ndarray]":
    """The second-level tables of the TABLE k-mers ``codes`` (ascending),
    walked over the node columns for every x-character suffix at once.

    An entry is what a walk of the x characters from the root finds --
    characters matched, the hit-count change bits -- and, when all x
    match, its state eagerly settled (module docstring): the node it
    lands on, characters consumed of that node, depth and count.
    """
    kind, count = nodes["kind"], nodes["count"]
    shape = (max(codes.size, 1), 4 ** x)
    table_slot = np.full(n_entries, -1, dtype=_ID)
    table_slot[codes] = np.arange(codes.size)
    matched = np.zeros(shape, dtype=np.int64)
    lep = np.zeros(shape, dtype=np.int64)
    state = np.zeros((4,) + shape, dtype=np.int64)
    state[0] = -1
    if codes.size:
        subcode = np.arange(4 ** x)
        nid = np.repeat(nodes["roots"][codes].astype(np.int64), 4 ** x)
        within = np.zeros(nid.size, dtype=np.int64)
        depth = np.zeros(nid.size, dtype=np.int64)
        hits = count[nid].astype(np.int64)
        live = np.ones(nid.size, dtype=bool)
        lep = lep.reshape(-1)
        matched = matched.reshape(-1)
        char = np.tile(subcode, codes.size)
        for j in range(x):
            c = (char >> (2 * (x - 1 - j))) & 3
            nid, within = _settle(nodes, nid, within)
            walking = np.flatnonzero(live)
            node_kind = kind[nid[walking]]
            live[:] = False
            # LEAF: the text after the first occurrence.
            at = walking[node_kind == KIND_LEAF]
            text_pos = nodes["off"][nid[at]] + k + depth[at]
            at, text_pos = at[text_pos < text.size], text_pos[
                text_pos < text.size]
            live[at[text[text_pos] == c[at]]] = True
            # UNIFORM: the run's next character.
            at = walking[node_kind == KIND_UNIFORM]
            live[at[nodes["chars_pool"][nodes["off"][nid[at]]
                                        + within[at]] == c[at]]] = True
            within[live] += 1
            # DIVERGE: the branch's count may differ from the node's.
            at = walking[node_kind > KIND_LEAF]
            child = children_of(nodes, nid[at], c[at])
            at, child = at[child >= 0], child[child >= 0]
            live[at] = True
            within[at] = 0
            nid[at] = child
            lep[at[count[child] != hits[at]]] |= 1 << j
            hits[at] = count[child]
            depth[live] += 1
            matched[live] += 1
        nid, within = _settle(nodes, nid, within)
        lep, matched = lep.reshape(shape), matched.reshape(shape)
        for row, values in enumerate((nid, within, depth, hits)):
            state[row].reshape(-1)[live] = values[live]
    return {"table_slot": table_slot, "jt_matched": matched.astype(_ID),
            "jt_lep": lep.astype(_ID), "jt_node": state[0].astype(_ID),
            "jt_within": state[1].astype(_ID),
            "jt_depth": state[2].astype(_ID),
            "jt_count": state[3].astype(_ID)}


def _settle(nodes: "Mapping[str, np.ndarray]", nid: np.ndarray,
            within: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Step off exhausted UNIFORM runs onto their child (never another
    UNIFORM node: a run is as long as its interval's shared extension)."""
    done = ((nodes["kind"][nid] == KIND_UNIFORM)
            & (within == nodes["chars_len"][nid]))
    return np.where(done, nid + 1, nid), np.where(done, 0, within)
