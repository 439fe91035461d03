"""FMD-index seeding engine: character-at-a-time bi-interval extension.

This is the BWA-MEM/BWA-MEM2 behaviour the paper profiles in §II: every
base pair of the read costs occurrence-table lookups that land in random
parts of a multi-gigabyte structure, which is exactly the bandwidth
bottleneck ERT removes.  The engine reports every occurrence-block and
suffix-array access through the index's attached tracer.
"""

from __future__ import annotations

import numpy as np

from repro.fmindex.fmd import FmdIndex
from repro.seeding.engine import ForwardSearch, SeedingEngine


class FmdSeedingEngine(SeedingEngine):
    """Seeding engine over an :class:`~repro.fmindex.fmd.FmdIndex`."""

    def __init__(self, index: FmdIndex) -> None:
        super().__init__()
        self.index = index
        self.name = f"fmd-{index.config.name}"

    # -- engine interface ------------------------------------------------

    def forward_search(self, read: np.ndarray, start: int,
                       min_hits: int = 1) -> ForwardSearch:
        n = int(read.size)
        bi = self.index.init_interval(int(read[start]))
        if bi.s < min_hits:
            return ForwardSearch(start, start, ())
        leps = []
        e = start + 1
        while e < n:
            nxt = self.index.forward_extend(bi, int(read[e]))
            self.stats.occ_queries += 1
            if nxt.s != bi.s:
                leps.append(e)
            if nxt.s < min_hits:
                return ForwardSearch(start, e, tuple(leps))
            bi = nxt
            e += 1
        if not leps or leps[-1] != e:
            leps.append(e)
        return ForwardSearch(start, e, tuple(leps))

    def backward_search(self, read: np.ndarray, end: int,
                        min_hits: int = 1) -> int:
        bi = self.index.init_interval(int(read[end - 1]))
        if bi.s < min_hits:
            return end
        s = end - 1
        while s > 0:
            nxt = self.index.backward_extend(bi, int(read[s - 1]))
            self.stats.occ_queries += 1
            if nxt.s < min_hits:
                break
            bi = nxt
            s -= 1
        return s

    def locate(self, read: np.ndarray, start: int, end: int,
               limit: "int | None" = None) -> "tuple[int, list[int]]":
        bi = self.index.pattern_interval(read[start:end])
        if bi.is_empty:
            return 0, []
        # Engine-wide contract: seeds with more hits than the limit carry
        # the count but no positions (BWA's chaining skips them anyway).
        if limit is not None and bi.s > limit:
            self.stats.truncated_hit_lists += 1
            return bi.s, []
        hits = self.index.locate(bi)
        self.stats.sa_lookups += len(hits)
        return bi.s, hits

    def last_seed(self, read: np.ndarray, start: int, min_len: int,
                  max_intv: int) -> "tuple[int, int] | None":
        n = int(read.size)
        bi = self.index.init_interval(int(read[start]))
        if bi.is_empty:
            return None
        e = start + 1
        while True:
            if e - start >= min_len and bi.s < max_intv:
                return e, bi.s
            if e >= n:
                return None
            nxt = self.index.forward_extend(bi, int(read[e]))
            self.stats.occ_queries += 1
            if nxt.is_empty:
                return None
            bi = nxt
            e += 1
