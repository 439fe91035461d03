"""SIMT divergence analysis of ERT traversal (paper §VII).

The paper dismisses GPUs for ERT seeding: "ERT traversal is inherently
not data-parallel and causes significant memory divergence in GPU SIMD
units".  This module quantifies that claim: a *warp* of reads executes
tree walks in lockstep, and at every step we measure

* **control divergence** -- the fraction of active lanes whose cursor
  sits on a node of the majority kind (different kinds decode
  differently, so minorities stall), and
* **memory divergence** -- how many distinct cache lines the active
  lanes' current nodes touch (each distinct line is a separate memory
  transaction for the warp).

A bandwidth-friendly kernel would stay near 1 line per step; ERT walks
scatter across trees, so the expected result -- and the reproduced one --
is close to one transaction *per lane*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arena import KIND_UNIFORM, ArenaCursor, arena_cursor
from repro.core.index import ErtIndex
from repro.core.walk import walk

LINE = 64


@dataclass
class DivergenceReport:
    """Aggregate SIMT behaviour over a batch of warps."""

    warps: int = 0
    steps: int = 0
    lane_steps: int = 0
    coherent_lane_steps: int = 0
    memory_transactions: int = 0

    @property
    def control_coherence(self) -> float:
        """Mean fraction of active lanes on the majority node kind."""
        if not self.lane_steps:
            return 1.0
        return self.coherent_lane_steps / self.lane_steps

    @property
    def transactions_per_step(self) -> float:
        """Distinct cache lines touched per lockstep step (1.0 would be a
        perfectly coalesced kernel; warp_size is the worst case)."""
        return self.memory_transactions / self.steps if self.steps else 0.0


class _Steps:
    """What a walk reports to a fetch model, kept as ``(position,
    node)`` where it first examines each node; nothing is charged."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.events: "list[tuple[int, int]]" = []

    def entry(self, code: int) -> None:
        pass

    def root(self, nid: int) -> None:
        self.events.append((self.k, nid))

    def step(self, nid: int, pos: int) -> None:
        if nid != self.events[-1][1]:
            self.events.append((pos, nid))

    def ref(self, text_pos: int, n: int) -> None:
        pass


def _lane_nodes(cursor: ArenaCursor, read: np.ndarray,
                code: int) -> "list[int]":
    """The node a lane stands on before each character it tries, from
    the first one after its k-mer to the one its walk ends at.  As in
    the hardware, a node is reached only when a character needs it:
    after a DIVERGE step the lane stands on the child, and after a
    UNIFORM run is used up, on the run itself, not its successor."""
    k = cursor.k
    steps = _Steps(k)
    seq = np.asarray(read, dtype=np.uint8).tobytes()
    end, nid, _count, _advanced = walk(cursor, seq, (code,), 0,
                                       len(seq), fetch=steps)
    events = steps.events
    if nid != events[-1][1]:  # stepped into at the read end, never read
        events.append((end, nid))
    nodes = []
    j = 0
    for pos in range(k, end + 1):
        while j + 1 < len(events) and events[j + 1][0] <= pos:
            j += 1
        at, node = events[j]
        if j and at == pos and cursor.kind[node - 1] == KIND_UNIFORM:
            node -= 1  # preorder: the run precedes its one child
        nodes.append(node)
    return nodes


def measure_divergence(index: ErtIndex, reads: "list[np.ndarray]",
                       warp_size: int = 32) -> DivergenceReport:
    """Run warps of k-mer tree walks in lockstep and measure divergence.

    Each lane walks the tree of its read's first k-mer (the dominant
    access pattern of forward search); a lane goes inactive when its walk
    dies or its read is exhausted.
    """
    cursor = arena_cursor(index)
    offset = index.layout.offset
    k = index.config.k
    report = DivergenceReport()
    for base in range(0, len(reads) - warp_size + 1, warp_size):
        lanes = []
        for read in reads[base:base + warp_size]:
            if int(read.size) < k:
                continue
            code = index.kmer_code(read[:k])
            if code not in index.roots:
                continue
            tree = index.tree_base[code]
            # The kind without the DIVERGE bitmap, and the node's line.
            lanes.append([(cursor.kind[nid] & 3,
                           (tree + int(offset[nid])) // LINE)
                          for nid in _lane_nodes(cursor, read, code)])
        if not lanes:
            continue
        report.warps += 1
        for step in range(max(len(lane) for lane in lanes)):
            active = [lane[step] for lane in lanes if len(lane) > step]
            kinds = [kind for kind, _line in active]
            report.steps += 1
            report.lane_steps += len(active)
            report.coherent_lane_steps += max(kinds.count(kind)
                                              for kind in set(kinds))
            report.memory_transactions += len({line for _kind, line
                                               in active})
    return report
