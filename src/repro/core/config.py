"""Structural configuration of an Enumerated Radix Tree index."""

from __future__ import annotations

import enum
from typing import Any, Iterable, NamedTuple


class LayoutPolicy(enum.Enum):
    """How radix-tree nodes are serialized into memory (§III-D).

    ``TILED`` clusters likely-co-accessed subtrees into cache-line-sized
    tiles (the paper's choice, guaranteeing >= log4(n+1) node visits per
    tile); ``DFS`` and ``BFS`` are the straw-man orders the paper compares
    against, kept for the ablation benchmark.
    """

    TILED = "tiled"
    DFS = "dfs"
    BFS = "bfs"


class _ErtConfigFields(NamedTuple):
    k: int = 8
    max_seed_len: int = 151
    table_threshold: int = 256
    table_x: int = 4
    multilevel: bool = True
    layout: LayoutPolicy = LayoutPolicy.TILED
    prefix_merging: bool = False
    index_entry_bytes: int = 8
    table_entry_bytes: int = 8

    @property
    def n_entries(self) -> int:
        """Number of first-level index-table entries (4^k)."""
        return 4 ** self.k

    @property
    def max_ext(self) -> int:
        """Maximum tree depth: characters matchable beyond the k-mer."""
        return self.max_seed_len - self.k


class ErtConfig(_ErtConfigFields):
    """All structural knobs of the ERT (a read-only ``NamedTuple``;
    construction, ``_make`` / ``_replace`` and unpickling all check it).

    Parameters
    ----------
    k:
        Enumerated k-mer length.  The paper uses 15 against the 3 Gbp human
        genome (index table with 4^15 entries); at this reproduction's
        synthetic-genome scales the default 8 keeps the table density --
        and therefore the EMPTY fraction and hit skew -- representative.
    max_seed_len:
        Maximum match length the trees support (reads must not be longer).
        The paper builds for 101 bp Illumina reads; 151 leaves headroom.
    table_threshold:
        K-mers with more than this many occurrences get a second-level
        index table (Fig 4 entry kind TABLE; the paper uses > 256).
    table_x:
        Suffix characters enumerated by the second-level table (§III-E;
        the paper settles on x = 4, fan-out 256).
    multilevel:
        Enable second-level tables at all (off reproduces the x = 1
        baseline of the §III-E ablation).
    layout:
        Node serialization policy (§III-D).
    prefix_merging:
        Store one prefix character per leaf and resolve adjacent backward
        searches in a single traversal (§III-B, the ERT-PM configuration).
    index_entry_bytes / table_entry_bytes:
        Modelled byte width of first-/second-level index entries (type +
        LEP bits + pointer, 8 B in the paper).
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ErtConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not 2 <= self.k <= 14:
            raise ValueError("k must be in 2..14 (4^k index entries)")
        if self.max_seed_len <= self.k:
            raise ValueError("max_seed_len must exceed k")
        if self.max_seed_len - self.k > 255:
            raise ValueError(
                "max_seed_len - k must fit a uint8 (serialized UNIFORM "
                "runs store their length in one byte)")
        if self.table_x < 1:
            raise ValueError("table_x must be at least 1")
        if self.table_threshold < 2:
            raise ValueError("table_threshold must be at least 2")
        return self

    @classmethod
    def _make(  # type: ignore[override]
            cls, iterable: "Iterable[Any]") -> "ErtConfig":
        return cls(*iterable)
