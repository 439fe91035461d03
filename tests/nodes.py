"""The decoded forest: radix-tree node objects (paper Fig 4), for tests.

The index holds and walks its forest as the arena's columns
(:mod:`repro.core.arena`) only.  This module decodes a tree of it into
objects -- the oracle the column builder, the layout model and the wire
format (``tests/serialize.py``) are checked against -- and holds the
objects the recursive object builder (``tests/test_ert_build.py``)
makes.  Three concrete node classes, each storing the number of
reference occurrences below it (``count``):

* :class:`UniformNode` -- a merged singleton path: every surviving
  occurrence continues with the same character string, matched in one
  multi-character comparison.
* :class:`DivergeNode` -- a branch point with more than one valid
  continuation.  Occurrences whose extension string terminates here
  (the k-mer sits so close to the end of the double-strand text that no
  further characters exist -- the ``$`` children in Fig 4) are kept in
  ``ended``.
* :class:`LeafNode` -- early path compression (§III-A2): from here every
  surviving occurrence shares one suffix, so the node stores the occurrence
  positions and matching proceeds by fetching the reference text at the
  first position.  ``prefix_chars`` carries the per-occurrence preceding
  character used by prefix merging (§III-B).

EMPTY nodes need no class: a missing child in a ``DivergeNode`` (or a
mismatch inside a uniform string / leaf comparison) *is* the dead end.

``offset``/``nbytes`` are set when a tree is decoded with a layout
(:func:`tree_at`, :func:`decoded`), from :mod:`repro.core.layout`.
"""

from __future__ import annotations

import numpy as np

from repro.core.arena import KIND_LEAF, KIND_UNIFORM, FlatTrees
from repro.core.index import ErtIndex
from repro.core.layout import ForestLayout


class Node:
    """Base class; concrete nodes carry ``count`` occurrences below."""

    __slots__ = ("count", "offset", "nbytes")

    kind = "node"

    def __init__(self, count: int) -> None:
        self.count = count
        self.offset = -1
        self.nbytes = 0

    def children_nodes(self) -> "list[Node]":
        """Child nodes in deterministic order (for layout and gathering)."""
        return []


class UniformNode(Node):
    """A merged singleton path: ``chars`` then exactly one child."""

    __slots__ = ("chars", "child")

    kind = "uniform"

    def __init__(self, chars: np.ndarray, child: Node, count: int) -> None:
        super().__init__(count)
        if chars.size == 0:
            raise ValueError("uniform node must carry at least one character")
        self.chars = chars
        self.child = child

    def children_nodes(self) -> "list[Node]":
        return [self.child]


class DivergeNode(Node):
    """A branch point: per-character children plus text-end terminations."""

    __slots__ = ("children", "ended")

    kind = "diverge"

    def __init__(self, children: "dict[int, Node]",
                 ended: "tuple[int, ...]", count: int) -> None:
        super().__init__(count)
        if not children and not ended:
            raise ValueError("diverge node needs children or ended hits")
        self.children = children
        self.ended = ended

    def children_nodes(self) -> "list[Node]":
        return [self.children[c] for c in sorted(self.children)]


class LeafNode(Node):
    """Early-path-compressed leaf: all occurrences share one suffix.

    ``positions`` are the start positions (in the double-strand text) of
    the *k-mer occurrence* this path descends from; the shared suffix is
    read from the reference at ``positions[0]``.  ``prefix_chars[i]`` is
    the character preceding ``positions[i]`` (or -1 at text start), stored
    for prefix merging.
    """

    __slots__ = ("positions", "prefix_chars")

    kind = "leaf"

    def __init__(self, positions: "tuple[int, ...]",
                 prefix_chars: "tuple[int, ...]") -> None:
        super().__init__(len(positions))
        if not positions:
            raise ValueError("leaf must hold at least one occurrence")
        if len(prefix_chars) != len(positions):
            raise ValueError("one prefix character per occurrence required")
        self.positions = positions
        self.prefix_chars = prefix_chars


def leaf_over(text: np.ndarray, positions: "tuple[int, ...]") -> LeafNode:
    """The leaf over sorted ``positions`` of ``text``, with each
    occurrence's preceding character read from the text."""
    return LeafNode(positions, tuple(int(text[p - 1]) if p > 0 else -1
                                     for p in positions))


def tree_at(flat: FlatTrees, text: np.ndarray, nid: int,
            layout: "ForestLayout | None" = None) -> Node:
    """The node objects of the subtree at arena node ``nid`` (``text``
    is the double-strand text: a leaf's prefix characters are read from
    it).  With ``layout`` every node carries its offset and size in its
    tree's blob."""
    kind = int(flat.kind[nid])
    count = int(flat.count[nid])
    off = int(flat.pos_off[nid])
    node: Node
    if kind == KIND_LEAF:
        node = leaf_over(text, tuple(flat.pool[off:off + count].tolist()))
    elif kind == KIND_UNIFORM:
        start = int(flat.off[nid])
        chars = flat.chars_pool[start:start + int(flat.chars_len[nid])]
        node = UniformNode(chars, tree_at(flat, text, nid + 1, layout),
                           count)
    else:
        # The child bitmap above the kind: the first child follows the
        # node, the others lie in the kids pool from ``off`` on.
        chars = [c for c in range(4) if kind >> (2 + c) & 1]
        start = int(flat.off[nid])
        ids = [nid + 1] + flat.kids[start:start + len(chars) - 1].tolist()
        children = {c: tree_at(flat, text, child, layout)
                    for c, child in zip(chars, ids)}
        # The pool run of a DIVERGE node opens with its own
        # terminations; its children's runs follow.
        ended = count - sum(child.count for child in children.values())
        node = DivergeNode(children,
                           tuple(flat.pool[off:off + ended].tolist()), count)
    if layout is not None:
        node.offset = int(layout.offset[nid])
        node.nbytes = int(layout.nbytes[nid])
    return node


def decoded(index: ErtIndex, code: int) -> Node:
    """The tree of k-mer ``code``, decoded from ``index``'s arena and
    laid out as the index places it in the trees region."""
    return tree_at(index.flat, index.text, index.roots[code], index.layout)


def forest(index: ErtIndex) -> "dict[int, Node]":
    """Every tree of ``index`` decoded, by k-mer code (ascending)."""
    return {code: decoded(index, code) for code in index.roots}
