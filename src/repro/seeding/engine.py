"""The abstract seeding-engine interface both indexes implement.

The SMEM algorithm (:mod:`repro.seeding.algorithm`) is written once against
this interface.  An engine must answer four questions about exact matches of
a read against the double-strand text ``X``:

* :meth:`SeedingEngine.forward_search` -- from a pivot, how far right does
  the match extend, and at which positions did the hit set change (the
  paper's *left extension points*, LEP)?
* :meth:`SeedingEngine.backward_search` -- given a right endpoint, how far
  left does the match extend?
* :meth:`SeedingEngine.locate` -- occurrence count and positions of a read
  substring.
* :meth:`SeedingEngine.last_seed` -- the forward-only selective-prefix query
  BWA-MEM2's third seeding round (LAST) performs.

LEP convention ("leaving", matching BWA's `bwt_smem1`): position ``p`` in
``(start, end)`` is an LEP iff extending the match from ``read[start:p]`` to
``read[start:p+1]`` changes the hit count; the match end ``end`` is always
an LEP.  This is exactly the set of right endpoints from which backward
searches must be launched for the SMEM set to be complete (§II-A).
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.seeding.types import Mem


class ForwardSearch(NamedTuple):
    """Result of a forward search from a pivot.

    ``end``: exclusive end of the longest match starting at the pivot
    (``end == start`` when even the first character has too few hits).
    ``leps``: ascending LEP positions in ``(start, end]``; empty iff the
    match is empty.  The last entry is always ``end``.
    """

    start: int
    end: int
    leps: "tuple[int, ...]"

    @property
    def is_empty(self) -> bool:
        return self.end <= self.start


class EngineStats:
    """Work counters every engine maintains (ablation figures §III-B/F).

    ``pruned_reseed_searches`` / ``pruned_last_launches`` count the
    reseed LEPs and LAST launches pruning skipped because they provably
    emit no seed (rounds 2 and 3, see :mod:`repro.seeding.algorithm`).
    ``truncated_hit_lists`` counts hit lists clipped by a locate limit
    (``max_hits_per_seed``): the seed keeps its true count but its
    positions are dropped.  It surfaces as the ``seeds.truncated``
    telemetry counter and in the ``seed`` CLI summary so the clipping is
    never silent.
    """

    __slots__ = ("forward_searches", "backward_searches",
                 "pruned_backward_searches", "pruned_reseed_searches",
                 "pruned_last_launches", "merged_backward_searches",
                 "index_lookups", "tree_root_fetches", "nodes_visited",
                 "leaf_fetches", "occ_queries", "sa_lookups",
                 "truncated_hit_lists")

    def __init__(self, forward_searches: int = 0, backward_searches: int = 0,
                 pruned_backward_searches: int = 0,
                 pruned_reseed_searches: int = 0,
                 pruned_last_launches: int = 0,
                 merged_backward_searches: int = 0, index_lookups: int = 0,
                 tree_root_fetches: int = 0, nodes_visited: int = 0,
                 leaf_fetches: int = 0, occ_queries: int = 0,
                 sa_lookups: int = 0, truncated_hit_lists: int = 0) -> None:
        self.forward_searches = forward_searches
        self.backward_searches = backward_searches
        self.pruned_backward_searches = pruned_backward_searches
        self.pruned_reseed_searches = pruned_reseed_searches
        self.pruned_last_launches = pruned_last_launches
        self.merged_backward_searches = merged_backward_searches
        self.index_lookups = index_lookups
        self.tree_root_fetches = tree_root_fetches
        self.nodes_visited = nodes_visited
        self.leaf_fetches = leaf_fetches
        self.occ_queries = occ_queries
        self.sa_lookups = sa_lookups
        self.truncated_hit_lists = truncated_hit_lists

    def reset(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> "dict[str, int]":
        return dict(zip(self.__slots__, _read_stats(self)))

    def add_dict(self, values: "dict[str, int]") -> None:
        """Accumulate another stats struct's :meth:`as_dict` into this
        one (the :mod:`repro.parallel` aggregation path: every counter is
        additive, so per-worker totals merge exactly)."""
        for name, value in values.items():
            setattr(self, name, getattr(self, name, 0) + value)


_read_stats = attrgetter(*EngineStats.__slots__)


class SeedingEngine(abc.ABC):
    """Abstract exact-match engine over the double-strand text."""

    #: Human-readable configuration name (used in benchmark tables).
    name: str = "engine"

    #: Shortest query the engine's primitives accept.  ERT engines cannot
    #: walk segments shorter than ``k``; :func:`~repro.seeding.algorithm.
    #: seed_batch` skips reads below ``max(min_seed_len, min_query_len)``
    #: (no seed of the required length fits anyway) instead of letting a
    #: short read reach a primitive that would raise.
    min_query_len: int = 1

    #: Per-read work counters, zeroed by :meth:`begin_read`, which
    #: ``seed_batch`` stores per read in a
    #: :class:`~repro.seeding.stats.KernelBatchStats`: characters consumed
    #: by tree advances, position-pool gathers and their bytes, reseed
    #: pivots and LAST walks launched.  An engine that does not count one
    #: reports 0.
    walk_steps: int = 0
    gather_nodes: int = 0
    gather_bytes: int = 0
    reseed_launches: int = 0
    last_launches: int = 0

    def __init__(self) -> None:
        self.stats = EngineStats()

    # -- matching ------------------------------------------------------

    @abc.abstractmethod
    def forward_search(self, read: np.ndarray, start: int,
                       min_hits: int = 1) -> ForwardSearch:
        """Longest match of ``read[start:]`` with >= ``min_hits`` hits,
        plus its LEP positions (see module docstring for the convention)."""

    @abc.abstractmethod
    def backward_search(self, read: np.ndarray, end: int,
                        min_hits: int = 1) -> int:
        """Smallest ``s`` such that ``read[s:end]`` has >= ``min_hits``
        hits.  ``end`` itself is returned when even the single character
        ``read[end-1:end]`` is below the threshold."""

    @abc.abstractmethod
    def locate(self, read: np.ndarray, start: int, end: int,
               limit: "int | None" = None) -> "tuple[int, list[int]]":
        """``(count, hits)`` for ``read[start:end]``: the true occurrence
        count and the sorted hit positions in ``X`` (at most ``limit`` of
        them when given).  One engine call yields both so that traffic
        accounting matches real implementations, which know the interval
        size from the search that produced the seed."""

    @abc.abstractmethod
    def last_seed(self, read: np.ndarray, start: int, min_len: int,
                  max_intv: int) -> "tuple[int, int] | None":
        """BWA's third-round query (`bwt_seed_strategy1`): scan forward from
        ``start``; return ``(end, count)`` for the shortest match with
        length >= ``min_len`` and count < ``max_intv``, or ``None`` if the
        match dies before becoming long and selective enough.  Callers
        keep ``min_len >= min_query_len`` (the three rounds check it)."""

    # -- backward sweep ---------------------------------------------------

    def backward_sweep(self, read: np.ndarray, leps: "tuple[int, ...]",
                       min_hits: int, prev_pivot: int,
                       use_pruning: bool) -> "list[Mem]":
        """Run the backward searches for one pivot's LEP set.

        LEPs are processed right-to-left; with ``use_pruning`` a search
        that reaches ``prev_pivot`` ends the sweep (§III-F) because every
        remaining MEM is provably contained in the one just found.  Engines
        may override this to batch work across searches -- the ERT engine's
        prefix-merged sweep (§III-B) resolves adjacent LEP pairs with a
        single tree traversal -- but must return the same MEM multiset
        modulo contained intervals.
        """
        mems = []
        for idx in range(len(leps) - 1, -1, -1):
            p = leps[idx]
            s = self.backward_search(read, p, min_hits)
            self.stats.backward_searches += 1
            if s < p:
                mems.append(Mem(s, p))
            if use_pruning and s <= prev_pivot:
                self.stats.pruned_backward_searches += idx
                break
        return mems

    # -- bookkeeping ----------------------------------------------------

    def begin_read(self) -> None:
        """Hook invoked once per read before seeding: zeroes the per-read
        work counters (engines may also reset per-read scratch state;
        an override calls this)."""
        self.walk_steps = self.gather_nodes = self.gather_bytes = 0
        self.reseed_launches = self.last_launches = 0

    def begin_batch(self, reads: "list[np.ndarray]") -> None:
        """Hook invoked once per batch before seeding its reads (engines
        may precompute shared per-batch state, e.g. reverse complements
        in one pass).  Purely an optimization hook: results must be
        identical with or without it."""

    def reset_stats(self) -> None:
        self.stats.reset()
