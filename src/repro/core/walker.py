"""Walking ERT radix trees: cursors, gathering, and traffic emission.

A :class:`TreeCursor` consumes read characters one at a time but emits
memory traffic at *node/cache-line* granularity, which is exactly the
paper's point: a UNIFORM node's whole character run, or a leaf's reference
comparison, costs one fetch regardless of how many characters it resolves
(multi-character lookup, §III-A2).  Nodes packed into the same tile by the
§III-D layout produce no additional line fetches (the "~3 nodes per 64 B"
effect).

Node fetches are deferred until a character actually requires the node's
data -- decoding a DIVERGE node yields the chosen child's *address*; the
child itself is fetched on the next consumed character, exactly like the
hardware Tree Walker (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.index import (
    PHASE_GATHER,
    PHASE_ROOT,
    PHASE_TRAVERSAL,
    ErtIndex,
    JumpEntry,
)
from repro.core.nodes import DivergeNode, LeafNode, Node, UniformNode
from repro.seeding.engine import EngineStats

LINE = 64


@dataclass
class WalkState:
    """Snapshot of a cursor (stored in second-level jump entries)."""

    node: Node
    within: int
    pending: "Node | None"
    depth: int
    count: int


class TreeCursor:
    """Character-at-a-time walk over one k-mer's radix tree."""

    # repro: hot -- one cursor per walk that leaves the k-mer window.
    def __init__(self, index: ErtIndex, code: int, min_hits: int = 1,
                 stats: "EngineStats | None" = None,
                 enter_root: bool = True) -> None:
        self.index = index
        self.code = code
        self.min_hits = min_hits
        self.stats = stats
        self._text = index.text
        self._k = index.config.k
        self._last_line = -1
        self._last_ref_line = -1
        root = index.roots[code]
        self._base = index.tree_base[code]
        self.node: Node = root
        self.within = 0
        self.pending: "Node | None" = None
        self.depth = 0
        self.count = root.count
        self.count_changed = False
        if enter_root:
            self._enter_root(root)

    # ------------------------------------------------------------------
    # Traffic helpers
    # ------------------------------------------------------------------

    # repro: hot -- one call per cursor.
    def _enter_root(self, root: Node) -> None:
        # A unique k-mer's single reference pointer lives inline in the
        # 8-byte index entry (Fig 4, early path compression at the root),
        # so it costs no tree access; everything else fetches the root.
        inline = isinstance(root, LeafNode) and len(root.positions) == 1
        if not inline:
            self._emit_node(root, PHASE_ROOT)
            if self.stats is not None:
                self.stats.tree_root_fetches += 1

    # One call per node fetch; counters live in the stats struct the
    # engine passes in, flushed to telemetry per batch.
    # repro: hot
    def _emit_node(self, node: Node, phase: str) -> None:
        """Fetch a node: one access per cache line it spans that is not
        the line most recently touched."""
        if self.stats is not None:
            self.stats.nodes_visited += 1
        base = self._base + node.offset
        first = base // LINE
        last = (base + max(node.nbytes, 1) - 1) // LINE
        for line in range(first, last + 1):
            if line == self._last_line:
                continue
            self.index.trace(self.index.trees_region.base, line * LINE, LINE,
                             phase, self.index.trees_region.name)
        self._last_line = last

    # repro: hot -- one call per character matched against the text.
    def _emit_ref(self, text_pos: int) -> None:
        line = (text_pos // 4) // LINE
        if line != self._last_ref_line:
            self.index.trace_ref_line(text_pos)
            self._last_ref_line = line
            if self.stats is not None:
                self.stats.leaf_fetches += 1

    # ------------------------------------------------------------------
    # Walking
    # ------------------------------------------------------------------

    # repro: hot -- called by advance for every character.
    def _settle(self, phase: str) -> None:
        """Descend through nodes whose data is exhausted (deferred fetch)."""
        while True:
            node = self.node
            if self.pending is not None:
                nxt = self.pending
                self.pending = None
                self._emit_node(nxt, phase)
                self.node = nxt
                self.within = 0
            elif (isinstance(node, UniformNode)
                    and self.within == node.chars.size):
                self._emit_node(node.child, phase)
                self.node = node.child
                self.within = 0
            else:
                return

    # repro: hot -- one call per read character consumed.
    def advance(self, c: int, phase: str = PHASE_TRAVERSAL) -> bool:
        """Consume one read character; False (state unchanged) at a dead
        end -- mismatch, missing branch, text end, or a branch whose
        occupancy falls below ``min_hits``."""
        self._settle(phase)
        node = self.node
        self.count_changed = False
        if isinstance(node, LeafNode):
            pos = node.positions[0] + self._k + self.depth
            if pos >= self._text.size:
                return False
            self._emit_ref(pos)
            if int(self._text[pos]) != c:
                return False
            self.within += 1
            self.depth += 1
            return True
        if isinstance(node, UniformNode):
            if int(node.chars[self.within]) != c:
                return False
            self.within += 1
            self.depth += 1
            return True
        # DivergeNode: decoding selects the child; hit count changes.
        child = node.children.get(c)
        if child is None or child.count < self.min_hits:
            return False
        self.pending = child
        self.within = 0
        self.count_changed = child.count != self.count
        self.count = child.count
        self.depth += 1
        return True

    # ------------------------------------------------------------------
    # Snapshots (second-level jump tables)
    # ------------------------------------------------------------------

    def snapshot(self) -> WalkState:
        return WalkState(node=self.node, within=self.within,
                         pending=self.pending, depth=self.depth,
                         count=self.count)

    # repro: hot -- one call per jump-table landing in _walk.
    def restore(self, state: WalkState, emit: bool = True,
                phase: str = PHASE_TRAVERSAL) -> None:
        """Land on a precomputed state (jump-table fast path).

        The landing node's data still has to come from memory -- the jump
        skipped the root and the top of the tree, not the node it lands
        on -- so the fetch is emitted here.
        """
        self.node = state.node
        self.within = state.within
        self.pending = state.pending
        self.depth = state.depth
        self.count = state.count
        self.count_changed = False
        if emit:
            self._emit_node(state.node, phase)

    # ------------------------------------------------------------------
    # Leaf gathering (depth-first search, §IV-B)
    # ------------------------------------------------------------------

    def _gather_root(self) -> Node:
        return self.pending if self.pending is not None else self.node

    def gather(self) -> "list[int]":
        """All occurrence positions of the currently matched prefix.

        Runs the Leaf Gatherer's DFS over the remaining subtree; every
        node visited beyond the already-fetched current node costs memory
        traffic tagged ``leaf_gather``.
        """
        root = self._gather_root()
        positions: "list[int]" = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node is not self.node:
                self._emit_node(node, PHASE_GATHER)
            if isinstance(node, LeafNode):
                positions.extend(node.positions)
            elif isinstance(node, DivergeNode):
                positions.extend(node.ended)
                stack.extend(node.children_nodes())
            else:
                stack.append(node.child)
        return sorted(positions)


def build_jump_table(index: ErtIndex, code: int) -> "list[JumpEntry]":
    """Precompute the walk outcome of every x-character suffix (§III-E).

    A loaded index calls this when a walk first reaches the k-mer, maybe
    with a tracer or reuse cache attached; the precomputation is no
    modelled access, so both are set aside while its cursors run.
    """
    x = index.config.table_x
    entries = []
    tracer, reuse_cache = index.tracer, index.reuse_cache
    index.tracer = index.reuse_cache = None
    try:
        for subcode in range(4 ** x):
            cursor = TreeCursor(index, code, enter_root=False)
            matched = 0
            bits = 0
            for j in range(x):
                c = (subcode >> (2 * (x - 1 - j))) & 3
                if not cursor.advance(c):
                    break
                if cursor.count_changed:
                    bits |= 1 << j
                matched += 1
            state = cursor.snapshot() if matched == x else None
            entries.append(JumpEntry(matched=matched, lep_bits=bits,
                                     state=state, count=cursor.count))
    finally:
        index.tracer, index.reuse_cache = tracer, reuse_cache
    return entries
