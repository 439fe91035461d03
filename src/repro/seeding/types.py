"""Core value types shared across seeding engines.

The per-search values (:class:`Mem`, :class:`Seed` and
:class:`~repro.seeding.engine.ForwardSearch`) are ``NamedTuple``\\ s: a
read makes about twenty of them, and a tuple costs one Python-level call
to build and none to hash, compare or read.  Equality, hash and order
are those of the field tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple


class _MemFields(NamedTuple):
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, other: "Mem") -> bool:
        """True if ``other`` lies fully inside this MEM."""
        return self.start <= other.start and other.end <= self.end


class Mem(_MemFields):
    """A maximal exact match in read coordinates: ``read[start:end]``.

    Construction, ``_make`` / ``_replace`` and unpickling all refuse an
    interval that is not ``0 <= start < end``."""

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Mem":
        if not 0 <= start < end:
            raise ValueError(f"invalid MEM interval [{start}, {end})")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(  # type: ignore[override]
            cls, iterable: "Iterable[int]") -> "Mem":
        return cls(*iterable)


class Seed(NamedTuple):
    """A seed in the output format the paper's accelerator emits (§IV-E):
    (seed start position in read, seed length, list of hits in ``X``).

    ``hits`` are sorted positions in the double-strand text; map them to
    forward-strand coordinates with
    :meth:`repro.sequence.Reference.to_forward`.  ``hit_count`` is the true
    occurrence count even when ``hits`` was truncated by a locate limit.
    """

    read_start: int
    length: int
    hits: "tuple[int, ...]"
    hit_count: int

    @property
    def read_end(self) -> int:
        return self.read_start + self.length

    @property
    def interval(self) -> Mem:
        return Mem(self.read_start, self.read_end)


@dataclass
class SeedingResult:
    """Everything seeding produces for one read."""

    smems: "list[Seed]" = field(default_factory=list)
    reseed_seeds: "list[Seed]" = field(default_factory=list)
    last_seeds: "list[Seed]" = field(default_factory=list)

    @property
    def all_seeds(self) -> "list[Seed]":
        """All seeds, deduplicated by (start, length), sorted."""
        seen = {}
        for seed in self.smems + self.reseed_seeds + self.last_seeds:
            seen.setdefault((seed.read_start, seed.length), seed)
        return [seen[key] for key in sorted(seen)]

    def key(self) -> "tuple":
        """A canonical, comparable summary (for engine equivalence checks)."""
        return tuple(
            (s.read_start, s.length, s.hit_count, s.hits)
            for s in self.all_seeds)
