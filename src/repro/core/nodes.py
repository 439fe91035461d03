"""Radix-tree node kinds (paper Fig 4).

Three concrete node classes, each storing the number of reference
occurrences below it (``count``) so walks can report hit-set changes (LEP)
and honour minimum-hit thresholds:

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

``offset``/``nbytes`` are assigned by :mod:`repro.core.layout` when the
tree is serialized.
"""

from __future__ import annotations

import numpy as np


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
