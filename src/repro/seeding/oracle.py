"""Brute-force ground truth for exact-match seeding.

Two independent artifacts live here:

* :func:`oracle_smems` -- a from-first-principles SMEM computation (longest
  match from every read position + containment filter).  It shares *no*
  code with the pivot/LEP algorithm, so agreement between the two is strong
  evidence of correctness.
* :class:`OracleEngine` -- a :class:`~repro.seeding.engine.SeedingEngine`
  backed by plain string searching, usable anywhere the FMD or ERT engines
  are; it lets the full three-round pipeline be cross-checked engine against
  engine.
"""

from __future__ import annotations

import numpy as np

from repro.seeding.engine import ForwardSearch, SeedingEngine
from repro.seeding.types import Mem
from repro.sequence.alphabet import decode
from repro.sequence.reference import Reference


def count_occurrences(text: str, pattern: str) -> int:
    """Number of (possibly overlapping) occurrences of ``pattern``."""
    if not pattern:
        return len(text) + 1
    count = 0
    pos = text.find(pattern)
    while pos != -1:
        count += 1
        pos = text.find(pattern, pos + 1)
    return count


def find_occurrences(text: str, pattern: str,
                     limit: "int | None" = None) -> "list[int]":
    """Sorted start positions of (overlapping) occurrences."""
    positions = []
    pos = text.find(pattern)
    while pos != -1:
        positions.append(pos)
        if limit is not None and len(positions) >= limit:
            break
        pos = text.find(pattern, pos + 1)
    return positions


def oracle_smems(reference: Reference, read: np.ndarray,
                 min_len: int = 1, min_hits: int = 1) -> "list[Mem]":
    """SMEMs of ``read`` computed directly from the definition (§II-A).

    For every read position ``i`` the longest match ``[i, e_i)`` with at
    least ``min_hits`` occurrences in the double-strand text is found; MEMs
    contained in another are dropped; survivors shorter than ``min_len``
    are dropped.  ``e_i`` is non-decreasing in ``i``, so a two-pointer scan
    needs only O(read length) count queries.
    """
    text = decode(reference.both_strands)
    read_str = decode(read)
    n = len(read_str)
    mems = []
    e = 0
    for i in range(n):
        e = max(e, i)
        while (e < n
               and count_occurrences(text, read_str[i:e + 1]) >= min_hits):
            e += 1
        if e > i:
            mems.append(Mem(i, e))
    # Containment filter (sweep over start-ascending, end-descending order).
    out = []
    max_end = -1
    for mem in sorted(set(mems), key=lambda m: (m.start, -m.end)):
        if mem.end > max_end:
            out.append(mem)
            max_end = mem.end
    return [m for m in out if m.length >= min_len]


class OracleEngine(SeedingEngine):
    """A seeding engine backed by plain string searching."""

    name = "oracle"

    def __init__(self, reference: Reference) -> None:
        super().__init__()
        self.reference = reference
        self.text = decode(reference.both_strands)

    def _segment(self, read: np.ndarray, start: int, end: int) -> str:
        return decode(read[start:end])

    def forward_search(self, read: np.ndarray, start: int,
                       min_hits: int = 1) -> ForwardSearch:
        n = int(read.size)
        if count_occurrences(self.text, self._segment(read, start, start + 1)) < min_hits:
            return ForwardSearch(start, start, ())
        leps = []
        prev_count = count_occurrences(self.text,
                                       self._segment(read, start, start + 1))
        e = start + 1
        while e < n:
            nxt = count_occurrences(self.text,
                                    self._segment(read, start, e + 1))
            if nxt != prev_count:
                leps.append(e)
            if nxt < min_hits:
                return ForwardSearch(start, e, tuple(leps))
            prev_count = nxt
            e += 1
        if not leps or leps[-1] != e:
            leps.append(e)
        return ForwardSearch(start, e, tuple(leps))

    def backward_search(self, read: np.ndarray, end: int,
                        min_hits: int = 1) -> int:
        if count_occurrences(self.text, self._segment(read, end - 1, end)) < min_hits:
            return end
        s = end - 1
        while s > 0:
            if count_occurrences(self.text,
                                 self._segment(read, s - 1, end)) < min_hits:
                break
            s -= 1
        return s

    def locate(self, read: np.ndarray, start: int, end: int,
               limit: "int | None" = None) -> "tuple[int, list[int]]":
        pattern = self._segment(read, start, end)
        count = count_occurrences(self.text, pattern)
        # Engine-wide contract: seeds with more hits than the limit carry
        # the count but no positions (BWA's chaining skips them anyway).
        if limit is not None and count > limit:
            self.stats.truncated_hit_lists += 1
            return count, []
        return count, find_occurrences(self.text, pattern)

    def last_seed(self, read: np.ndarray, start: int, min_len: int,
                  max_intv: int) -> "tuple[int, int] | None":
        n = int(read.size)
        e = start + 1
        count = count_occurrences(self.text, self._segment(read, start, e))
        while True:
            if count < 1:
                return None
            if e - start >= min_len and count < max_intv:
                return e, count
            if e >= n:
                return None
            e += 1
            count = count_occurrences(self.text,
                                      self._segment(read, start, e))
