"""Multi-contig references (the paper indexes chromosomes 1-22, X, Y).

Real references are a set of contigs; BWA concatenates them into one
text and maps hit positions back to per-contig coordinates.
:class:`MultiReference` does the same: it exposes a single concatenated
:class:`~repro.sequence.reference.Reference` for the index structures and
translates forward-strand positions into ``(contig, offset)`` pairs.

Hits that straddle a contig boundary are artifacts of concatenation and
are reported as ``None``, exactly like strand-junction hits.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.sequence.reference import ForwardHit, Reference, Strand


@dataclass(frozen=True)
class ContigHit:
    """A hit expressed in one contig's coordinates."""

    contig: str
    strand: Strand
    start: int
    length: int


class MultiReference:
    """A set of named contigs behind one concatenated index text."""

    def __init__(self, contigs: "list[Reference]") -> None:
        if not contigs:
            raise ValueError("at least one contig required")
        names = [c.name for c in contigs]
        if len(set(names)) != len(names):
            raise ValueError("contig names must be unique")
        self.contigs = list(contigs)
        self._starts = []
        offset = 0
        for contig in contigs:
            self._starts.append(offset)
            offset += len(contig)
        self.concatenated = Reference(
            name="|".join(names),
            codes=np.concatenate([c.codes for c in contigs]))

    def __len__(self) -> int:
        return len(self.concatenated)

    @property
    def names(self) -> "list[str]":
        return [c.name for c in self.contigs]

    def contig_of(self, forward_pos: int) -> "tuple[Reference, int]":
        """The contig containing a forward-strand position, plus its
        start offset in the concatenated text."""
        if not 0 <= forward_pos < len(self):
            raise ValueError(f"position {forward_pos} outside reference")
        idx = bisect.bisect_right(self._starts, forward_pos) - 1
        return self.contigs[idx], self._starts[idx]

    def resolve(self, x_pos: int, length: int) -> "ContigHit | None":
        """Map a hit in the concatenated double-strand text to a contig.

        Returns ``None`` for strand-junction or contig-junction hits.
        """
        hit: "ForwardHit | None" = self.concatenated.to_forward(x_pos, length)
        if hit is None:
            return None
        contig, base = self.contig_of(hit.start)
        if hit.end > base + len(contig):
            return None  # straddles a contig boundary
        return ContigHit(contig=contig.name, strand=hit.strand,
                         start=hit.start - base, length=hit.length)

    def sam_header_lines(self) -> "list[str]":
        lines = ["@HD\tVN:1.6\tSO:unknown"]
        lines.extend(f"@SQ\tSN:{c.name}\tLN:{len(c)}" for c in self.contigs)
        lines.append("@PG\tID:repro-ert\tPN:repro-ert")
        return lines
