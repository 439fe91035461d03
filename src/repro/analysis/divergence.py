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

from repro.core.arena import arena_cursor
from repro.core.index import ErtIndex
from repro.core.walker import TreeCursor

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


def measure_divergence(index: ErtIndex, reads: "list[np.ndarray]",
                       warp_size: int = 32) -> DivergenceReport:
    """Run warps of k-mer tree walks in lockstep and measure divergence.

    Each lane walks the tree of its read's first k-mer (the dominant
    access pattern of forward search); a lane goes inactive when its walk
    dies or its read is exhausted.
    """
    kind = arena_cursor(index).kind
    offset = index.layout.offset
    k = index.config.k
    report = DivergenceReport()
    for base in range(0, len(reads) - warp_size + 1, warp_size):
        warp = reads[base:base + warp_size]
        lanes = []
        for read in warp:
            if int(read.size) < k:
                continue
            code = index.kmer_code(read[:k])
            if code not in index.roots:
                continue
            cursor = TreeCursor(index, code, stats=None, enter_root=False)
            lanes.append((cursor, read, [k]))  # position box per lane
        if not lanes:
            continue
        report.warps += 1
        active = list(lanes)
        while active:
            report.steps += 1
            kinds = []
            lines = set()
            survivors = []
            for cursor, read, pos_box in active:
                nid = cursor.pending if cursor.pending >= 0 \
                    else cursor.node
                kinds.append(kind[nid] & 3)  # the bitmap is no kind
                addr = index.tree_base[cursor.code] + int(offset[nid])
                lines.add(addr // LINE)
                pos = pos_box[0]
                if pos < int(read.size) and cursor.advance(int(read[pos])):
                    pos_box[0] = pos + 1
                    survivors.append((cursor, read, pos_box))
            majority = max(kinds.count(kind) for kind in set(kinds))
            report.lane_steps += len(active)
            report.coherent_lane_steps += majority
            report.memory_transactions += len(lines)
            active = survivors
    return report
