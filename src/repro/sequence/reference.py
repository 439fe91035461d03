"""Reference genomes and the double-strand text the indexes are built over.

Both the FMD-index (Li 2012) and the ERT (§III-A3 of the paper) find exact
matches on *both* DNA strands.  They do so by indexing the concatenation of
the forward strand and its reverse complement:

    ``X = R . revcomp(R)``

A hit at position ``p`` in ``X`` with ``p < len(R)`` is a forward-strand hit;
a hit at ``p >= len(R)`` lies on the reverse-complement strand and maps back
to a forward-strand interval via :meth:`Reference.to_forward`.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from repro.sequence.alphabet import decode, encode, revcomp_codes


class Strand(enum.Enum):
    """Which DNA strand a hit lies on."""

    FORWARD = "+"
    REVERSE = "-"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ForwardHit(NamedTuple):
    """A hit mapped back to forward-strand coordinates."""

    strand: Strand
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


class Reference:
    """A named reference genome.

    Parameters
    ----------
    name:
        Contig / assembly name (e.g. ``"chr_synthetic_1"``).
    codes:
        Forward strand as a ``uint8`` code array (values 0..3).
    """

    __slots__ = ("name", "codes", "_both")

    def __init__(self, name: str, codes: np.ndarray) -> None:
        self.name = name
        self.codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if self.codes.ndim != 1:
            raise ValueError("reference codes must be a 1-D array")
        if self.codes.size == 0:
            raise ValueError("reference must be non-empty")
        if self.codes.max() > 3:
            raise ValueError("reference codes must be in 0..3")
        self._both: "np.ndarray | None" = None

    @classmethod
    def from_string(cls, seq: str, name: str = "ref") -> "Reference":
        """Build a reference from an ``ACGT`` string."""
        return cls(name=name, codes=encode(seq))

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def sequence(self) -> str:
        """Forward strand as a string (materialized on demand)."""
        return decode(self.codes)

    @property
    def both_strands(self) -> np.ndarray:
        """``X = R . revcomp(R)``, the text every index is built over."""
        if self._both is None:
            self._both = np.concatenate(
                [self.codes, revcomp_codes(self.codes)])
        return self._both

    def to_forward(self, pos: int, length: int) -> "ForwardHit | None":
        """Map a hit at ``X[pos:pos+length]`` to forward-strand coordinates.

        A reverse-strand hit covering ``X[pos:pos+length]`` corresponds to
        the forward interval whose reverse complement it is.  Hits that
        straddle the strand junction are biological artifacts of the
        concatenated text (BWA discards them during chaining); ``None`` is
        returned for those.
        """
        n = len(self)
        if pos < 0 or pos + length > 2 * n:
            raise ValueError(f"hit [{pos}, {pos + length}) outside X of size {2 * n}")
        if pos + length <= n:
            return ForwardHit(Strand.FORWARD, pos, length)
        if pos >= n:
            off = pos - n
            return ForwardHit(Strand.REVERSE, n - off - length, length)
        return None
