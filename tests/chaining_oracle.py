"""Colinear chaining one anchor object at a time: the test oracle.

This is :func:`repro.extend.chaining.chain_seeds` as it was written
first -- a frozen dataclass per anchor, every open chain asked in turn
through :meth:`Chain.can_absorb`, score and start recomputed in the sort
key.  The package's version keeps each open chain's last anchor as plain
ints and computes each chain's score once; it must return the same
chains, in the same order, with the same anchors, score and starts
(``tests/test_chaining.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extend.chaining import MAX_CHAINS, MAX_DIAG_DRIFT, MAX_GAP


@dataclass(frozen=True)
class Anchor:
    """One (read position, reference position, length) seed occurrence."""

    read_start: int
    ref_start: int
    length: int

    @property
    def read_end(self) -> int:
        return self.read_start + self.length

    @property
    def ref_end(self) -> int:
        return self.ref_start + self.length

    @property
    def diagonal(self) -> int:
        return self.ref_start - self.read_start


@dataclass
class Chain:
    """A colinear group of anchors."""

    anchors: "list[Anchor]" = field(default_factory=list)

    @property
    def score(self) -> int:
        """Read-bases covered by the chain's anchors (merged intervals)."""
        spans = sorted((a.read_start, a.read_end) for a in self.anchors)
        covered = 0
        cur_start, cur_end = spans[0]
        for start, end in spans[1:]:
            if start > cur_end:
                covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        return covered + cur_end - cur_start

    @property
    def ref_start(self) -> int:
        return min(a.ref_start for a in self.anchors)

    @property
    def read_start(self) -> int:
        return min(a.read_start for a in self.anchors)

    @property
    def diagonal(self) -> int:
        return self.anchors[0].diagonal

    def can_absorb(self, anchor: Anchor) -> bool:
        last = self.anchors[-1]
        if abs(anchor.diagonal - last.diagonal) > MAX_DIAG_DRIFT:
            return False
        if anchor.ref_start < last.ref_start:
            return False
        gap = anchor.ref_start - last.ref_end
        read_gap = anchor.read_start - last.read_end
        return gap <= MAX_GAP and read_gap <= MAX_GAP


def chain_seeds(seeds) -> "list[Chain]":
    """Group seed hits into colinear chains, the best :data:`MAX_CHAINS`
    by score first."""
    anchors = [Anchor(seed.read_start, hit, seed.length)
               for seed in seeds for hit in seed.hits]
    anchors.sort(key=lambda a: (a.ref_start, a.read_start))
    chains: "list[Chain]" = []
    for anchor in anchors:
        for chain in chains:
            if chain.can_absorb(anchor):
                chain.anchors.append(anchor)
                break
        else:
            chains.append(Chain(anchors=[anchor]))
    chains.sort(key=lambda c: (-c.score, c.ref_start))
    return chains[:MAX_CHAINS]
