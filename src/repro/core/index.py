"""The built ERT index: enumerated table, trees, regions, traffic hooks.

An :class:`ErtIndex` owns:

* the **first-level index table** -- for *every* possible k-mer (4^k
  entries): entry kind (EMPTY / LEAF / TREE / TABLE), the k-1 LEP bits,
  the longest existing prefix length and the occurrence count (Fig 4);
* the **radix trees** (one per non-unique existing k-mer) serialized into a
  byte-accurate region so walks can be charged per cache line;
* the **second-level jump tables** (§III-E) for k-mers above the density
  threshold: precomputed x-character walk states with fan-out 4^x;
* the **auxiliary prefix-count tables** (counts of every 1..k-1-mer;
  the length-k table is the entry counts themselves), consulted only
  when a search carries a minimum-hit threshold (reseeding) and the
  index entry's change bits are not enough;
* an optional :class:`~repro.memsim.cache.CacheModel` standing in for the
  accelerator's k-mer reuse cache -- accesses that hit it cost no traffic.

Built, loaded or attached, an index holds the forest as the arena
(:mod:`repro.core.arena`), the one form the walk reads, jump tables
included.

All memory traffic funnels through :meth:`ErtIndex.trace` with the phase
tags of Fig 13: ``index_lookup``, ``table_lookup``, ``tree_root``,
``tree_traversal``, ``leaf_gather``, ``ref_fetch``.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Mapping,
    TypeVar,
)

import numpy as np

from repro.core.config import ErtConfig
from repro.memsim.trace import AddressSpace, MemoryTracer
from repro.sequence.reference import Reference

if TYPE_CHECKING:
    from repro.core.arena import FlatTrees
    from repro.core.io import IndexFile
    from repro.core.layout import ForestLayout, LayoutStats
    from repro.memsim.cache import CacheModel

PHASE_INDEX = "index_lookup"
PHASE_TABLE = "table_lookup"
PHASE_ROOT = "tree_root"
PHASE_TRAVERSAL = "tree_traversal"
PHASE_GATHER = "leaf_gather"
PHASE_REF = "ref_fetch"
PHASE_PREFIX = "prefix_count"


class EntryKind(enum.IntEnum):
    """First-level index-table entry kinds (Fig 4)."""

    EMPTY = 0
    LEAF = 1
    TREE = 2
    TABLE = 3


_T = TypeVar("_T")


class LazyByCode(Mapping[int, _T]):
    """Per-k-mer objects of an index, made on first access.

    ``codes`` (ascending) are the k-mers that have one.  ``make(code)``
    runs once for each code that is asked for and its result is kept;
    length, membership and iteration (ascending) never call it and hold
    no Python object per k-mer.
    """

    def __init__(self, codes: np.ndarray,
                 make: "Callable[[int], _T]") -> None:
        self.codes = codes
        self._made: "dict[int, _T]" = {}
        self._make = make

    def rank(self, code: object) -> int:
        """Where ``code`` is in ``codes`` (KeyError if it is not there)."""
        if isinstance(code, (int, np.integer)):
            i = int(np.searchsorted(self.codes, code))
            if i < self.codes.size and self.codes[i] == code:
                return i
        raise KeyError(code)

    def __getitem__(self, code: int) -> _T:
        made = self._made.get(code)
        if made is None:
            self.rank(code)
            made = self._made[code] = self._make(code)
        return made

    def __contains__(self, code: object) -> bool:
        try:
            self.rank(code)
        except KeyError:
            return False
        return True

    def __iter__(self) -> "Iterator[int]":
        return iter(self.codes.tolist())

    def __len__(self) -> int:
        return int(self.codes.size)


class ErtIndex:
    """Container for an ERT, built (:func:`repro.core.builder.build_ert`)
    or loaded (:mod:`repro.core.io`)."""

    def __init__(self, reference: Reference, config: ErtConfig,
                 entry_kind: np.ndarray, lep_bits: np.ndarray,
                 prefix_len: np.ndarray, kmer_count: np.ndarray,
                 tree_bases: np.ndarray,
                 prefix_counts: "list[np.ndarray]",
                 trees_bytes: int, flat: FlatTrees) -> None:
        self.reference = reference
        self.config = config
        self.text = reference.both_strands
        self.entry_kind = entry_kind
        self.lep_bits = lep_bits
        self.prefix_len = prefix_len
        self.kmer_count = kmer_count
        #: The arena (:mod:`repro.core.arena`), emitted by the builder or
        #: stored: the forest, in the one form every walk reads.
        self.flat = flat
        roots: "LazyByCode[int]" = LazyByCode(
            np.flatnonzero(flat.roots >= 0),
            lambda code: int(flat.roots[code]))
        #: Root node id by k-mer code, for the k-mers that have a tree.
        self.roots = roots
        #: Where each tree's blob starts in the trees region, one per
        #: tree in k-mer order (what both index formats store), and the
        #: same by k-mer code.
        self.tree_bases = tree_bases
        self.tree_base: "Mapping[int, int]" = LazyByCode(
            roots.codes, lambda code: int(tree_bases[roots.rank(code)]))
        self.prefix_counts = prefix_counts
        self._layout: "ForestLayout | None" = None
        #: Cache slot of :func:`repro.core.arena.arena_cursor`.
        self.cursor: "object | None" = None
        self.tracer: "MemoryTracer | None" = None
        self.reuse_cache: "CacheModel | None" = None
        #: The file the index is mapped from (set by
        #: :func:`repro.core.io.load_ert`); None for one built in memory.
        self.source: "IndexFile | None" = None

        self.space = AddressSpace()
        cfg = config
        self.index_region = self.space.allocate(
            "ert.index_table", cfg.n_entries * cfg.index_entry_bytes)
        self.trees_region = self.space.allocate("ert.trees", trees_bytes)
        # The stored tables keep one row when no k-mer has a table, so
        # count the TABLE entries, not the rows.
        n_tables = int(np.count_nonzero(entry_kind == EntryKind.TABLE))
        table_bytes = n_tables * (4 ** cfg.table_x) * cfg.table_entry_bytes
        self.tables_region = self.space.allocate("ert.tables", table_bytes)
        aux_bytes = sum(4 ** l * 4 for l in range(1, cfg.k))
        self.aux_region = self.space.allocate("ert.prefix_counts", aux_bytes)
        self.ref_region = self.space.allocate(
            "ref.packed", (self.text.size + 3) // 4)

    @property
    def layout(self) -> ForestLayout:
        """Every arena node's offset and size in the trees region: the
        offsets the builder stored, the sizes derived from the columns
        the first time this is read."""
        if self._layout is None:
            from repro.core.layout import stored_layout

            self._layout = stored_layout(self.flat, self.config,
                                         self.tree_bases,
                                         self.trees_region.size)
        return self._layout

    @property
    def layout_stats(self) -> LayoutStats:
        """Tile statistics of the serialized forest."""
        return self.layout.stats()

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def trace(self, base: int, offset: int, size: int, phase: str,
              region_name: str = "") -> None:
        """Report an access, filtered through the k-mer reuse cache.

        The cache operates at line granularity: lines already resident
        cost no DRAM traffic (the accelerator's "skipping two otherwise
        mandatory DRAM accesses", §III-C).
        """
        if self.tracer is None and self.reuse_cache is None:
            return
        addr = base + offset
        if self.reuse_cache is not None:
            line = 64
            first = addr // line
            last = (addr + size - 1) // line
            for ln in range(first, last + 1):
                if self.reuse_cache.lookup(ln * line):
                    continue
                if self.tracer is not None:
                    self.tracer.access(ln * line, line, phase, region_name)
            return
        self.tracer.access(addr, size, phase, region_name)

    def trace_index_entry(self, code: int) -> None:
        self.trace(self.index_region.base,
                   code * self.config.index_entry_bytes,
                   self.config.index_entry_bytes, PHASE_INDEX,
                   self.index_region.name)

    def trace_table_entry(self, code: int, subcode: int) -> None:
        # Second-level tables are laid out densely in k-mer order.
        slot = int(self.flat.table_slot[code])
        entry_bytes = self.config.table_entry_bytes
        offset = (slot * (4 ** self.config.table_x) + subcode) * entry_bytes
        self.trace(self.tables_region.base, offset, entry_bytes,
                   PHASE_TABLE, self.tables_region.name)

    def trace_ref_line(self, text_pos: int) -> None:
        """One cache line of the 2-bit-packed reference around ``text_pos``."""
        byte = text_pos // 4
        line = byte & ~63
        self.trace(self.ref_region.base, line, 64, PHASE_REF,
                   self.ref_region.name)

    def trace_prefix_count(self, length: int, code: int) -> None:
        offset = sum(4 ** l * 4 for l in range(1, length)) + code * 4
        self.trace(self.aux_region.base, offset, 4, PHASE_PREFIX,
                   self.aux_region.name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def kmer_code(self, codes: np.ndarray) -> int:
        """Big-endian 2-bit pack of ``k`` base codes (shorter inputs are
        padded with ``A``, i.e. zero bits, on the right)."""
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        value <<= 2 * (self.config.k - len(codes))
        return value

    def index_bytes(self) -> "dict[str, int]":
        """Byte footprint per component (paper reports table + trees)."""
        return {
            "index_table": self.index_region.size,
            "trees": self.trees_region.size,
            "tables": self.tables_region.size,
            "prefix_counts": self.aux_region.size,
            "total": (self.index_region.size + self.trees_region.size
                      + self.tables_region.size + self.aux_region.size),
        }

    def attach_tracer(self, tracer: "MemoryTracer | None") -> None:
        self.tracer = tracer
