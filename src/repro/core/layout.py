"""Node sizes and the cache-friendly tiled layout (§III-D), over the
arena's columns (:mod:`repro.core.arena`).

Node byte sizes follow the paper's concrete wire format (the encoder in
``tests/serialize.py`` writes every tree against them):

* ``DIVERGE``: 5 B header (kind, child bitmap, ended count, uint24 count)
  + 4 B per child pointer + 4 B per ended hit;
* ``UNIFORM``: 9 B header (kind, run length, count, child pointer)
  + packed run characters (4 per byte);
* ``LEAF``:    3 B header (kind, position count) + 4 B per occurrence
  (+ 2-bit prefix characters and a validity bitmap under prefix merging).

Every tree gets its own blob, rounded up to a whole tile so distinct
trees never share a line, in one of three orders.  The builder lays the
forest out once (:func:`forest_layout`) and stores every node's offset
as the arena's ``offset`` column; an index reads it back
(:func:`stored_layout`) with the sizes derived from the columns, and
never lays the forest out again.  ``TILED`` packs each
subtree greedily into 64 B tiles so a root-to-leaf walk touches few
cache lines (the paper reports ~3 nodes traversed per 64 B, 50 %
utilization); ``DFS``/``BFS`` are the comparison orders for the ablation
benchmark.  The arena numbers a tree's nodes in preorder, so DFS offsets
are a per-tree prefix sum of the sizes and BFS the same sum after a
stable sort by node depth.  Only TILED's greedy packing is sequential,
and a tree that fits one tile packs in BFS order, so the packing loop
runs over the trees larger than a tile only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.arena import (
    FANOUT,
    KIND_LEAF,
    KIND_UNIFORM,
    FlatTrees,
    children_of,
)
from repro.core.config import ErtConfig, LayoutPolicy

TILE = 64

#: About how many nodes are laid out at a time.
_CHUNK = 1 << 16


def node_size(kind: "np.ndarray | int", count: "np.ndarray | int",
              n_children: "np.ndarray | int", n_ended: "np.ndarray | int",
              chars_len: "np.ndarray | int",
              prefix_merging: bool) -> np.ndarray:
    """Serialized size in bytes of every node, elementwise (a kind that
    is not DIVERGE / UNIFORM / LEAF is a ValueError)."""
    count = np.asarray(count, dtype=np.int64)
    leaf = 3 + 4 * count
    if prefix_merging:
        leaf += (count + 3) // 4 + (count + 7) // 8
    diverge = (5 + 4 * np.asarray(n_children, dtype=np.int64)
               + 4 * np.asarray(n_ended, dtype=np.int64))
    uniform = 9 + (np.asarray(chars_len, dtype=np.int64) + 3) // 4
    # Chosen by kind code: KIND_DIVERGE, KIND_UNIFORM, KIND_LEAF are 0-2.
    return np.choose(kind, (diverge, uniform, leaf))


def node_bytes(nodes: "Mapping[str, np.ndarray]", lo: int, hi: int,
               prefix_merging: bool) -> np.ndarray:
    """:func:`node_size` of the arena nodes ``lo:hi``, from the columns.
    A DIVERGE node's children are its bitmap's bits and its ended hits
    open its pool run, up to its first child's (``nid + 1``)."""
    kind = nodes["kind"][lo:hi]
    diverge = np.flatnonzero(kind > KIND_LEAF)
    pos_off = nodes["pos_off"]
    ended = np.zeros(kind.size, dtype=np.int64)
    ended[diverge] = pos_off[lo + 1 + diverge] - pos_off[lo + diverge]
    return node_size(kind & 3, nodes["count"][lo:hi],
                     np.asarray(FANOUT)[kind], ended,
                     nodes["chars_len"][lo:hi], prefix_merging)


@dataclass
class LayoutStats:
    """Aggregate statistics of a serialized forest."""

    total_bytes: int = 0
    n_nodes: int = 0
    n_tiles: int = 0
    nodes_per_tile: "dict[int, int]" = field(default_factory=dict)

    @property
    def mean_nodes_per_tile(self) -> float:
        # Derived reporting stat, not accounting state (ERT004 exception).
        if not self.nodes_per_tile:
            return 0.0  # repro: allow(ERT004)
        total = sum(tile * count for tile, count in self.nodes_per_tile.items())
        return total / sum(self.nodes_per_tile.values())  # repro: allow(ERT004)


@dataclass(frozen=True)
class ForestLayout:
    """Where every arena node lies in the modelled trees region."""

    #: Per node: byte offset inside its tree's blob, and size.
    offset: np.ndarray
    nbytes: np.ndarray
    #: Per tree, in k-mer order: its root's node id and its blob's start.
    tree_roots: np.ndarray
    tree_bases: np.ndarray
    trees_bytes: int

    def stats(self) -> LayoutStats:
        """Nodes per tile over the laid-out trees (blobs start on tile
        boundaries, so a node's tile is its address over the tile)."""
        per_tree = np.diff(np.append(self.tree_roots, self.offset.size))
        tiles = (np.repeat(self.tree_bases, per_tree) + self.offset) // TILE
        per_tile = np.bincount(tiles)
        per_tile = per_tile[per_tile > 0]
        return LayoutStats(
            total_bytes=self.trees_bytes, n_nodes=int(self.offset.size),
            n_tiles=int(per_tile.size),
            nodes_per_tile={nodes: tiles for nodes, tiles in enumerate(
                np.bincount(per_tile).tolist()) if tiles})


def stored_layout(flat: FlatTrees, config: ErtConfig,
                  tree_bases: np.ndarray, trees_bytes: int) -> ForestLayout:
    """The layout the builder stored: the ``offset`` column as it lies,
    the node sizes derived from the columns."""
    return ForestLayout(
        offset=flat.offset,
        nbytes=node_bytes(flat._asdict(), 0, flat.kind.size,
                          config.prefix_merging),
        tree_roots=flat.roots[flat.roots >= 0], tree_bases=tree_bases,
        trees_bytes=trees_bytes)


def forest_layout(nodes: "Mapping[str, np.ndarray]",
                  config: ErtConfig) -> ForestLayout:
    """Lay out every tree of the arena columns ``nodes`` under
    ``config``'s policy, a chunk of whole trees at a time (that bounds
    every temporary).  The builder runs it once and stores the offsets."""
    n_nodes = nodes["kind"].size
    roots = nodes["roots"]
    # Each tree's root node id, then the node id where the last one ends.
    bounds = np.append(roots[roots >= 0], n_nodes)
    roots = bounds[:-1]
    nbytes = np.empty(n_nodes, dtype=np.int32)
    offset = np.empty(n_nodes, dtype=np.int32)
    size = np.empty(roots.size, dtype=np.int64)
    # Ascending; repeats dropped without np.unique (it imports numpy.ma).
    cuts = np.searchsorted(roots, np.arange(0, n_nodes, _CHUNK))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
    for lo_tree, hi_tree in zip(cuts.tolist(),
                                np.append(cuts[1:], roots.size).tolist()):
        lo, hi = int(roots[lo_tree]), int(bounds[hi_tree])
        chunk = _Chunk(nodes, lo, hi, roots[lo_tree:hi_tree] - lo,
                       config.prefix_merging)
        nbytes[lo:hi] = chunk.nbytes
        offset[lo:hi], size[lo_tree:hi_tree] = chunk.offsets(config.layout)
    size = (size + TILE - 1) & ~(TILE - 1)
    return ForestLayout(offset=offset, nbytes=nbytes, tree_roots=roots,
                        tree_bases=np.cumsum(size) - size,
                        trees_bytes=int(size.sum()))


class _Chunk:
    """The nodes ``lo:hi`` of the arena columns ``nodes``, whole trees
    rooted at ``roots``, sized; node ids local to the chunk."""

    def __init__(self, nodes: "Mapping[str, np.ndarray]", lo: int, hi: int,
                 roots: np.ndarray, prefix_merging: bool) -> None:
        self.roots = roots.astype(np.int64)
        nid = np.arange(lo, hi)
        children = np.stack([children_of(nodes, nid, c) for c in range(4)],
                            axis=1)
        self.branch = children >= 0
        self.children = children - lo
        # A UNIFORM node's one child follows it in preorder.
        self.uniform = np.flatnonzero(nodes["kind"][lo:hi] == KIND_UNIFORM)
        self.below_run = self.uniform + 1
        self.nbytes = node_bytes(nodes, lo, hi, prefix_merging)

    def offsets(self, policy: LayoutPolicy
                ) -> "tuple[np.ndarray, np.ndarray]":
        """Every node's offset in its tree's blob, and each tree's size
        (before rounding up to a tile)."""
        nbytes = self.nbytes
        tree_of = np.repeat(np.arange(self.roots.size),
                            np.diff(np.append(self.roots, nbytes.size)))
        if policy is LayoutPolicy.DFS:
            offset = self._packed(nbytes, tree_of)
        else:
            order = np.lexsort((self._depths(), tree_of))
            offset = np.empty(nbytes.size, dtype=np.int64)
            offset[order] = self._packed(nbytes[order], tree_of)
        size = np.add.reduceat(nbytes, self.roots)
        if policy is LayoutPolicy.TILED:
            # A tree that fits one tile packs in BFS order.
            big = np.flatnonzero(size > TILE)
            if big.size:
                size[big] = self._tiled(self.roots[big], offset)
        return offset, size

    def _packed(self, nbytes: np.ndarray, tree_of: np.ndarray) -> np.ndarray:
        """Offsets when every tree's nodes lie back to back in the given
        order (each tree keeps its index range)."""
        before = np.cumsum(nbytes) - nbytes
        return before - before[self.roots][tree_of]

    def _depths(self) -> np.ndarray:
        """Every node's distance from its root, by pointer jumping over
        the parent links (log2 of the tallest tree's height rounds)."""
        up = np.full(self.nbytes.size, -1, dtype=np.int64)
        rows, slots = np.nonzero(self.branch)
        up[self.children[rows, slots]] = rows
        up[self.below_run] = self.uniform
        depth = (up >= 0).astype(np.int64)
        live = np.flatnonzero(up >= 0)
        while live.size:
            above = up[live]
            depth[live] += depth[above]
            up[live] = up[above]
            live = live[up[live] >= 0]
        return depth

    def _tiled(self, roots: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Greedy tile packing of the trees at ``roots``, one at a time:
        open a tile, pull the pending subtree roots' descendants
        breadth-first while they fit, spill the rest to later tiles; a
        node larger than a tile gets a tile run of its own.  Writes the
        nodes' offsets and returns each tree's packed size."""
        # Children in character order, as int lists: one CSR row per node.
        kids = self.children.copy()
        present = self.branch.copy()
        kids[self.uniform, 0] = self.below_run
        present[self.uniform, 0] = True
        ptr = np.zeros(kids.shape[0] + 1, dtype=np.int64)
        np.cumsum(present.sum(axis=1), out=ptr[1:])
        kid, ptr_of = kids[present].tolist(), ptr.tolist()
        size_of = self.nbytes.tolist()
        placed = offset.tolist()
        sizes = []
        for root in roots.tolist():
            at = 0
            pending = deque([root])
            while pending:
                # Open a fresh tile at the next tile boundary.
                at = (at + TILE - 1) & ~(TILE - 1)
                room = TILE
                local = deque([pending.popleft()])
                first_in_tile = True
                while local:
                    node = local.popleft()
                    nb = size_of[node]
                    if nb <= room or first_in_tile:
                        placed[node] = at
                        at += nb
                        room -= nb
                        first_in_tile = False
                        local.extend(kid[ptr_of[node]:ptr_of[node + 1]])
                        if room <= 0:
                            break
                    else:
                        pending.append(node)
                pending.extend(local)
            sizes.append(at)
        offset[:] = placed
        return np.array(sizes, dtype=np.int64)
