"""Colinear seed chaining (the ~10 % "chaining" stage of §II).

Seeds whose read and reference coordinates are consistent with one
alignment are grouped into chains, BWA-MEM style: anchors are sorted by
reference position and greedily merged into an existing chain when they
are colinear with its last anchor within a gap limit; otherwise they open
a new chain.  Chains are scored by their covered read length and returned
best-first.

Chaining runs once per read on a handful of anchors, so it is bound by
interpreter calls, not arithmetic: anchors are plain tuples, each open
chain keeps its last anchor as ints, and a chain's score and starts are
computed once, when it is made (docs/performance.md, "Alignment: calls
per read and start-up collection").
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import NamedTuple

from repro.seeding.types import Seed

#: Largest reference or read gap between an anchor and a chain's last.
MAX_GAP = 100
#: Largest diagonal difference between an anchor and a chain's last.
MAX_DIAG_DRIFT = 20
#: Chains kept per read, best first.
MAX_CHAINS = 50

_new = tuple.__new__
_REF_START = attrgetter("ref_start")
_SCORE = attrgetter("score")


class Anchor(NamedTuple):
    """One (read position, reference position, length) seed occurrence."""

    read_start: int
    ref_start: int
    length: int


class Chain:
    """A colinear group of anchors, with its score and starts."""

    __slots__ = ("anchors", "score", "ref_start", "read_start", "diagonal")

    def __init__(self, anchors: "list[Anchor]") -> None:
        self.anchors = anchors
        first = anchors[0]
        self.diagonal = first[1] - first[0]
        self.ref_start = min(map(itemgetter(1), anchors))
        # Read-bases covered by the anchors (merged intervals); the
        # anchors sort by read start first.
        spans = sorted(anchors)
        self.read_start = cur_start = cur_end = spans[0][0]
        covered = 0
        for start, _, length in spans:
            end = start + length
            if start > cur_end:
                covered += cur_end - cur_start
                cur_start = start
                cur_end = end
            elif end > cur_end:
                cur_end = end
        self.score = covered + cur_end - cur_start

    def __repr__(self) -> str:
        return f"Chain(anchors={self.anchors!r})"


# repro: hot -- one call per read, one iteration per anchor and open chain.
def chain_seeds(seeds: "list[Seed]") -> "list[Chain]":
    """Group seed hits into colinear chains, the best :data:`MAX_CHAINS`
    by score first.

    An anchor joins the first chain, in creation order, whose last
    anchor it follows within :data:`MAX_GAP` on the read and the
    reference and :data:`MAX_DIAG_DRIFT` on the diagonal; anchors are
    taken in ``(ref_start, read_start)`` order, so none starts before
    the last anchor of any chain on the reference.  Ties in score keep
    the leftmost chain first, then creation order.

    Seeds whose hit lists were truncated by the locate limit contribute
    nothing (BWA similarly skips ultra-repetitive seeds before chaining).
    """
    anchors = [_new(Anchor, (seed.read_start, hit, seed.length))
               for seed in seeds for hit in seed.hits]
    anchors.sort(key=itemgetter(1, 0))
    drift = MAX_DIAG_DRIFT
    max_gap = MAX_GAP
    # One [diagonal, ref end, read end, anchors] per open chain: its
    # last anchor as ints.
    open_chains: "list[list]" = []
    for anchor in anchors:
        read_start, ref_start, length = anchor
        diagonal = ref_start - read_start
        for last in open_chains:
            if (-drift <= diagonal - last[0] <= drift
                    and ref_start - last[1] <= max_gap
                    and read_start - last[2] <= max_gap):
                last[0] = diagonal
                last[1] = ref_start + length
                last[2] = read_start + length
                last[3].append(anchor)
                break
        else:
            open_chains.append([diagonal, ref_start + length,
                                read_start + length, [anchor]])
    chains = [Chain(last[3]) for last in open_chains]
    chains.sort(key=_REF_START)
    chains.sort(key=_SCORE, reverse=True)
    return chains[:MAX_CHAINS]
