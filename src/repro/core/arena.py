"""Structure-of-arrays form of the ERT radix trees: the flat arena.

The object trees of :mod:`repro.core.builder` are linked Python objects,
made one decode at a time.  The arena is the same forest as parallel
numpy arrays, one row per node, which a walk can index by node id
without making an object (:mod:`repro.kernels.walk`):

* ``kind``: DIVERGE / UNIFORM / LEAF discriminant;
* ``count``: occurrences below the node (LEP + min-hit checks);
* ``children``: the four per-character child node ids of a DIVERGE node
  (-1 for a missing branch == dead end);
* ``chars_off``/``chars_len`` into ``chars_pool``: a UNIFORM node's
  merged character run;
* ``child``: a UNIFORM node's single child;
* ``leaf_text0``: a LEAF's first occurrence position (matching proceeds
  against the reference text, early path compression §III-A2);
* ``pos_off`` into ``pool``: the ``count`` occurrence positions of the
  node's subtree, contiguous because the pool is filled in DFS (Euler)
  order.  ``gather(nid)`` is therefore one slice + sort instead of the
  scalar cursor's recursive DFS.

Second-level jump tables (§III-E) are translated into dense ``(n_tables,
4^x)`` arrays so a walk resolves the x-character jump with one lookup.

The arena is the only form the forest is stored in
(:mod:`repro.core.io`).  It is compiled from node objects in exactly one
place, :func:`flat_trees` on a *built* index, and that place fixes every
column's width (:data:`ARENA_DTYPES`): ``kind`` and ``chars_pool`` are
uint8, everything that holds a node id, an offset, a count or a text
position is int32, and a forest that does not fit is an
:class:`ArenaLimitError`, not a wider column.  A *loaded* index carries
the stored columns as they lie (read-only views into the shared-memory
segment in a pool worker, so N workers walk one physical arena); the
batched kernels walk them and make no node object, and the scalar
cursor's node objects are decoded from them one k-mer at a time
(:func:`tree_at`).  The module lives in :mod:`repro.core` rather
than next to its consumers in :mod:`repro.kernels` because the index
writers need it and core may not import the kernels (ERT005).

States are *eagerly settled*: where the scalar cursor defers a child
fetch (``pending`` / exhausted uniform run), the flat form lands on the
child immediately.  Settling is a traffic-accounting device only -- it
never changes match outcomes, counts, or subtree position sets (a uniform
node's subtree equals its child's) -- and the vector path is only taken
when no memory tracer is attached, so the flat walk is free to skip it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.core.index import ErtIndex
from repro.core.nodes import (
    DivergeNode,
    LeafNode,
    Node,
    UniformNode,
    leaf_over,
)
from repro.core.walker import WalkState

KIND_DIVERGE = 0
KIND_UNIFORM = 1
KIND_LEAF = 2

#: What an int32 column cannot hold: the text length and the sizes of
#: the node, position and character pools all stay below it.
ID_LIMIT = 2 ** 31


class ArenaLimitError(ValueError):
    """Raised when a forest does not fit the arena's int32 columns."""


@dataclass(frozen=True)
class FlatTrees:
    """The arena (see module docstring).  Read-only; shared by every
    walk over the same index."""

    k: int
    table_x: int
    kind: np.ndarray
    count: np.ndarray
    children: np.ndarray
    child: np.ndarray
    chars_off: np.ndarray
    chars_len: np.ndarray
    chars_pool: np.ndarray
    leaf_text0: np.ndarray
    pos_off: np.ndarray
    pool: np.ndarray
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

    def gather(self, nid: int) -> np.ndarray:
        """Sorted occurrence positions of the subtree below ``nid``
        (the scalar cursor's ``gather()``, as one slice)."""
        off = int(self.pos_off[nid])
        return np.sort(self.pool[off:off + int(self.count[nid])])


#: The arena's arrays, in the order both index formats store them.
ARENA_COLUMNS = tuple(f.name for f in fields(FlatTrees)
                      if f.name not in ("k", "table_x"))

#: The width every column is compiled, stored and walked at: node ids,
#: offsets, counts and text positions are ``_ID``.
_ID = np.dtype(np.int32)
ARENA_DTYPES = {
    name: np.dtype(np.uint8) if name in ("kind", "chars_pool") else _ID
    for name in ARENA_COLUMNS}


def flat_trees(index: ErtIndex) -> FlatTrees:
    """The arena of ``index`` (cached on it).  A loaded index was given
    its stored columns when it was assembled; a built one compiles
    here, once."""
    if index.flat is None:
        index.flat = _compile(index)
    return index.flat


def tree_at(flat: FlatTrees, text: np.ndarray, nid: int) -> Node:
    """The node objects of the subtree at arena node ``nid``, equal to
    what the builder made it from (``text`` is the double-strand text:
    a leaf's prefix characters are read from it, as the builder reads
    them).  Offsets are not stored: lay the tree out again
    (:func:`repro.core.layout.layout_tree`) for the ones it was built
    with."""
    kind = int(flat.kind[nid])
    count = int(flat.count[nid])
    off = int(flat.pos_off[nid])
    if kind == KIND_LEAF:
        return leaf_over(text, tuple(flat.pool[off:off + count].tolist()))
    if kind == KIND_UNIFORM:
        start = int(flat.chars_off[nid])
        chars = flat.chars_pool[start:start + int(flat.chars_len[nid])]
        below = tree_at(flat, text, int(flat.child[nid]))
        return UniformNode(chars, below, count)
    children = {c: tree_at(flat, text, child)
                for c, child in enumerate(flat.children[nid].tolist())
                if child >= 0}
    # The pool run of a DIVERGE node opens with its own terminations;
    # its children's runs follow.
    ended = count - sum(child.count for child in children.values())
    return DivergeNode(children,
                       tuple(flat.pool[off:off + ended].tolist()), count)


def _settle_nid(kind: "list[int]", chars_len: "list[int]",
                child: "list[int]", nid: int, within: int) -> "tuple[int, int]":
    """Eagerly descend through exhausted uniform runs (see module doc)."""
    while kind[nid] == KIND_UNIFORM and within == chars_len[nid]:
        nid = child[nid]
        within = 0
    return nid, within


def _compile(index: ErtIndex) -> FlatTrees:
    """Number every node in preorder (children in character order, so
    the pool fills in the scalar DFS's order) and emit one row each."""
    kind: "list[int]" = []
    count: "list[int]" = []
    children: "list[int]" = []  # four slots per node
    child: "list[int]" = []
    chars_off: "list[int]" = []
    chars_len: "list[int]" = []
    chars_pool: "list[int]" = []
    leaf_text0: "list[int]" = []
    pos_off: "list[int]" = []
    pool: "list[int]" = []
    # Jump entries name nodes of their tree; keyed by the node objects
    # themselves (identity hash), for TABLE trees only.
    nid_of: "dict[Node, int]" = {}

    n_entries = 4 ** index.config.k
    roots = np.full(n_entries, -1, dtype=_ID)
    for code in sorted(index.roots):
        roots[code] = len(kind)
        has_table = code in index.tables
        # (node, slot of `children` that names it; -1 for a root or a
        # uniform node's child, which is simply the next id).
        stack: "list[tuple[Node, int]]" = [(index.roots[code], -1)]
        while stack:
            node, slot = stack.pop()
            nid = len(kind)
            if slot >= 0:
                children[slot] = nid
            if has_table:
                nid_of[node] = nid
            count.append(int(node.count))
            pos_off.append(len(pool))
            children.extend((-1, -1, -1, -1))
            if isinstance(node, LeafNode):
                kind.append(KIND_LEAF)
                child.append(-1)
                chars_off.append(0)
                chars_len.append(0)
                leaf_text0.append(int(node.positions[0]))
                pool.extend(node.positions)
            elif isinstance(node, UniformNode):
                kind.append(KIND_UNIFORM)
                child.append(nid + 1)
                chars_off.append(len(chars_pool))
                chars_len.append(int(node.chars.size))
                chars_pool.extend(node.chars.tolist())
                leaf_text0.append(-1)
                stack.append((node.child, -1))
            else:
                assert isinstance(node, DivergeNode)
                kind.append(KIND_DIVERGE)
                child.append(-1)
                chars_off.append(0)
                chars_len.append(0)
                leaf_text0.append(-1)
                pool.extend(node.ended)
                for c in sorted(node.children, reverse=True):
                    stack.append((node.children[c], 4 * nid + c))

    # Jump tables: dense (n_tables, 4^x) arrays in slot order.
    x = index.config.table_x
    shape = (max(len(index.tables), 1), 4 ** x)
    table_slot = np.full(n_entries, -1, dtype=_ID)
    jt_matched = np.zeros(shape, dtype=_ID)
    jt_lep = np.zeros(shape, dtype=_ID)
    jt_node = np.full(shape, -1, dtype=_ID)
    jt_within = np.zeros(shape, dtype=_ID)
    jt_depth = np.zeros(shape, dtype=_ID)
    jt_count = np.zeros(shape, dtype=_ID)
    for slot, code in enumerate(sorted(index.tables)):
        table_slot[code] = slot
        for subcode, entry in enumerate(index.tables[code]):
            jt_matched[slot, subcode] = entry.matched
            jt_lep[slot, subcode] = entry.lep_bits
            state = entry.state
            if state is None:
                continue
            assert isinstance(state, WalkState)
            if state.pending is not None:
                nid, within = nid_of[state.pending], 0
            else:
                nid, within = nid_of[state.node], int(state.within)
            nid, within = _settle_nid(kind, chars_len, child, nid, within)
            jt_node[slot, subcode] = nid
            jt_within[slot, subcode] = within
            jt_depth[slot, subcode] = int(state.depth)
            jt_count[slot, subcode] = int(state.count)

    # Every value of a column is a text position or an index into the
    # node, position or character pool.
    largest = max(int(index.text.size), len(kind), len(pool),
                  len(chars_pool))
    if largest >= ID_LIMIT:
        raise ArenaLimitError(
            f"the forest does not fit the arena: its text or one of its "
            f"node, position and character pools holds {largest:,} "
            f"entries, and a column addresses fewer than {ID_LIMIT:,}")
    lists = {"kind": kind, "count": count, "children": children,
             "child": child, "chars_off": chars_off, "chars_len": chars_len,
             "chars_pool": chars_pool, "leaf_text0": leaf_text0,
             "pos_off": pos_off, "pool": pool}
    arrays = {name: np.array(values, dtype=ARENA_DTYPES[name])
              for name, values in lists.items()}
    arrays["children"] = arrays["children"].reshape(-1, 4)
    return FlatTrees(
        k=index.config.k, table_x=x, roots=roots, table_slot=table_slot,
        jt_matched=jt_matched, jt_lep=jt_lep, jt_node=jt_node,
        jt_within=jt_within, jt_depth=jt_depth, jt_count=jt_count,
        **arrays)
