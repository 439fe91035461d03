"""Address spaces and tagged memory-access tracing.

Every index structure in this repository is given a byte-accurate serialized
layout and allocates a :class:`Region` in a shared :class:`AddressSpace`.
Functional engines (FMD search, ERT walks) then report each logical memory
access to a :class:`MemoryTracer`, tagged with the *phase* of the seeding
algorithm that issued it (``index_lookup``, ``tree_root``, ``tree_traversal``,
``leaf_gather``, ``ref_fetch``, ``occ_lookup``, ``sa_lookup``...).

The tracer:

* coalesces each access into the set of cache lines it touches, mirroring
  how the paper counts "memory requests per read" (Fig 12a) and "data
  required per read" in 64 B units (Fig 12b);
* forwards each line-level request to any attached *sinks* (the DRAM
  model).

Tracing is optional: with ``tracer=None`` the engines skip all accounting,
so correctness tests pay no overhead.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple


CACHE_LINE = 64


class Region(NamedTuple):
    """A named, contiguous byte range inside an :class:`AddressSpace`."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class AddressSpace:
    """A flat byte address space in which structures allocate regions.

    Regions are aligned to DRAM-row boundaries (default 2 KiB) so that two
    structures never share a row, which keeps per-structure page-open
    attribution exact.
    """

    def __init__(self, alignment: int = 2048) -> None:
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        self.alignment = alignment
        self._next = 0
        self.regions: "dict[str, Region]" = {}

    def allocate(self, name: str, size: int) -> Region:
        """Allocate ``size`` bytes under ``name`` and return the region."""
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        if size < 0:
            raise ValueError("region size must be non-negative")
        base = self._next
        region = Region(name=name, base=base, size=size)
        self.regions[name] = region
        mask = self.alignment - 1
        self._next = (base + size + mask) & ~mask
        return region


class Access(NamedTuple):
    """One cache-line-granularity memory request."""

    addr: int
    size: int
    phase: str
    region: str


class PhaseStats:
    """Request/byte counters for one phase."""

    __slots__ = ("requests", "bytes")

    def __init__(self, requests: int = 0, bytes: int = 0) -> None:
        self.requests = requests
        self.bytes = bytes

    def add(self, requests: int, nbytes: int) -> None:
        self.requests += requests
        self.bytes += nbytes


class MemoryTracer:
    """Collect line-granular memory requests tagged by phase.

    Parameters
    ----------
    line_size:
        Granularity of a memory request (64 B cache lines by default,
        matching how the paper reports Fig 12).
    keep_trace:
        If true, every :class:`Access` is retained in ``trace`` (needed by
        the accelerator simulator's replay); otherwise only counters are
        kept, which is much cheaper for large batches.
    """

    def __init__(self, line_size: int = CACHE_LINE, keep_trace: bool = False) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError("line_size must be a positive power of two")
        self.line_size = line_size
        self.keep_trace = keep_trace
        self.trace: "list[Access]" = []
        self.by_phase: "dict[str, PhaseStats]" = defaultdict(PhaseStats)
        self.sinks: "list" = []
        self._line_mask = ~(line_size - 1)

    def access(self, addr: int, size: int, phase: str, region: str = "") -> None:
        """Record a logical access of ``size`` bytes at ``addr``.

        The access is split into the cache lines it touches; each line
        counts as one memory request fetching ``line_size`` bytes, exactly
        as a cache-line-granular memory system would behave.
        """
        if size <= 0:
            raise ValueError("access size must be positive")
        first_line = addr & self._line_mask
        last_line = (addr + size - 1) & self._line_mask
        n_lines = (last_line - first_line) // self.line_size + 1
        self.by_phase[phase].add(n_lines, n_lines * self.line_size)
        need_events = self.keep_trace or self.sinks
        if need_events:
            for i in range(n_lines):
                event = Access(addr=first_line + i * self.line_size,
                               size=self.line_size, phase=phase, region=region)
                if self.keep_trace:
                    self.trace.append(event)
                for sink in self.sinks:
                    sink.on_access(event)

    @property
    def total_requests(self) -> int:
        return sum(stats.requests for stats in self.by_phase.values())

    @property
    def total_bytes(self) -> int:
        return sum(stats.bytes for stats in self.by_phase.values())
