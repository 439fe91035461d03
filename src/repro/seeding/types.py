"""Core value types shared across seeding engines.

The per-search values (:class:`Mem`, :class:`Seed` and
:class:`~repro.seeding.engine.ForwardSearch`) are ``NamedTuple``\\ s: a
read makes about twenty of them, and a tuple costs one Python-level call
to build and none to hash, compare or read.  Equality, hash and order
are those of the field tuple.  The per-read :class:`SeedingResult` is a
``NamedTuple`` too.
"""

from __future__ import annotations

from operator import itemgetter
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


#: A :class:`Seed`'s ``(read_start, length)``.
_SPAN = itemgetter(0, 1)


class _SeedingResultFields(NamedTuple):
    smems: "list[Seed]"
    reseed_seeds: "list[Seed]"
    last_seeds: "list[Seed]"

    @property
    def all_seeds(self) -> "list[Seed]":
        """All seeds, deduplicated by (start, length), sorted; of seeds
        sharing a key, the first in round order is kept.

        The seeds enter a dict last first, so an earlier seed overwrites
        a later one under the same key, and the distinct keys order the
        seeds before their hits are ever compared."""
        seeds = self.smems + self.reseed_seeds + self.last_seeds
        seeds.reverse()
        return sorted(dict(zip(map(_SPAN, seeds), seeds)).values())

    def key(self) -> "tuple":
        """A canonical, comparable summary (for engine equivalence checks)."""
        return tuple(
            (s.read_start, s.length, s.hit_count, s.hits)
            for s in self.all_seeds)


class SeedingResult(_SeedingResultFields):
    """Everything seeding produces for one read: the seeds of each round
    (``smems``, ``reseed_seeds``, ``last_seeds``), each a list.

    A round left out of the constructor gets a new empty list.  The
    seeding driver builds each result once from its three lists with
    ``SeedingResult._make``, which takes them as they are.
    """

    __slots__ = ()

    def __new__(cls, smems: "list[Seed] | None" = None,
                reseed_seeds: "list[Seed] | None" = None,
                last_seeds: "list[Seed] | None" = None) -> "SeedingResult":
        return tuple.__new__(cls, (
            [] if smems is None else smems,
            [] if reseed_seeds is None else reseed_seeds,
            [] if last_seeds is None else last_seeds))
