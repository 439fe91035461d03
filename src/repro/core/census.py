"""Index statistics: hit distributions and tree shapes.

These back three of the paper's empirical claims:

* Fig 8 -- the k-mer hit distribution is heavily skewed (very few k-mers
  carry most of the hits), which motivates the multi-level table (§III-E);
* §III-A3 -- a large fraction of index entries is EMPTY (38.8 % at k=15
  on GRCh38) yet still carries LEP bits;
* §III-E -- most trees are shallow ("83 % of leaf nodes have depths <= 8"),
  which is why two index levels suffice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.arena import KIND_LEAF, KIND_UNIFORM, arena_cursor
from repro.core.index import EntryKind, ErtIndex


@dataclass
class IndexCensus:
    """Aggregate shape of one built index."""

    n_entries: int
    empty: int
    leaf: int
    tree: int
    table: int
    total_occurrences: int
    index_bytes: "dict[str, int]"

    @property
    def empty_fraction(self) -> float:
        return self.empty / self.n_entries if self.n_entries else 0.0


def index_census(index: ErtIndex) -> IndexCensus:
    """Count entry kinds and sizes (reproduces the §III-A3 numbers)."""
    kinds = index.entry_kind
    return IndexCensus(
        n_entries=int(kinds.size),
        empty=int(np.count_nonzero(kinds == EntryKind.EMPTY)),
        leaf=int(np.count_nonzero(kinds == EntryKind.LEAF)),
        tree=int(np.count_nonzero(kinds == EntryKind.TREE)),
        table=int(np.count_nonzero(kinds == EntryKind.TABLE)),
        total_occurrences=int(index.kmer_count.sum()),
        index_bytes=index.index_bytes(),
    )


def hit_distribution(index: ErtIndex,
                     thresholds: "tuple[int, ...]" = (1, 2, 5, 10, 20, 50,
                                                      100, 200, 500, 1000)
                     ) -> "list[tuple[int, int]]":
    """Number of k-mers with more than X hits, for each threshold X.

    This is exactly the curve of the paper's Fig 8 ("for a given number of
    hits X, the number of k-mers that have hits > X").
    """
    counts = index.kmer_count
    return [(x, int(np.count_nonzero(counts > x))) for x in thresholds]


@dataclass
class DepthCensus:
    """Distribution of leaf depths (extension characters below the k-mer)."""

    leaf_depths: "dict[int, int]" = field(default_factory=dict)

    @property
    def total_leaves(self) -> int:
        return sum(self.leaf_depths.values())

    def fraction_at_most(self, depth: int) -> float:
        """Fraction of leaves at depth <= ``depth`` (§III-E claims 83 %
        at depth 8 for the human genome)."""
        total = self.total_leaves
        if not total:
            return 0.0
        shallow = sum(count for d, count in self.leaf_depths.items()
                      if d <= depth)
        return shallow / total


def depth_census(index: ErtIndex) -> DepthCensus:
    """Walk every tree and histogram the depth of each leaf (a DIVERGE
    node some occurrences end at counts as one leaf at its depth)."""
    arena = arena_cursor(index)
    census = DepthCensus()
    depths = census.leaf_depths
    stack = [(root, 0) for root in index.roots.values()]
    while stack:
        nid, depth = stack.pop()
        kind = arena.kind[nid]
        if kind == KIND_LEAF:
            depths[depth] = depths.get(depth, 0) + 1
        elif kind == KIND_UNIFORM:  # its run, then its one child
            stack.append((nid + 1, depth + arena.chars_len[nid]))
        else:  # DIVERGE
            below = 0
            for child in arena.children(nid):
                below += arena.count[child]
                stack.append((child, depth + 1))
            if below < arena.count[nid]:  # some occurrences end here
                depths[depth] = depths.get(depth, 0) + 1
    return census
