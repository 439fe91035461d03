"""Colinear seed chaining (the ~10 % "chaining" stage of §II).

Seeds whose read and reference coordinates are consistent with one
alignment are grouped into chains, BWA-MEM style: anchors are sorted by
reference position and greedily merged into an existing chain when they
are colinear with its last anchor within a gap limit; otherwise they open
a new chain.  Chains are scored by their covered read length and returned
best-first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.seeding.types import Seed

#: Largest reference or read gap between an anchor and a chain's last.
MAX_GAP = 100
#: Largest diagonal difference between an anchor and a chain's last.
MAX_DIAG_DRIFT = 20
#: Chains kept per read, best first.
MAX_CHAINS = 50


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


def chain_seeds(seeds: "list[Seed]") -> "list[Chain]":
    """Group seed hits into colinear chains, the best :data:`MAX_CHAINS`
    by score first.

    Seeds whose hit lists were truncated by the locate limit contribute
    nothing (BWA similarly skips ultra-repetitive seeds before chaining).
    """
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
