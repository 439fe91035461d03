"""Memory-system modelling: access tracing, caches and DRAM row buffers.

The paper's evaluation is largely a memory-traffic argument: Figs 12-14
count memory requests, bytes fetched and DRAM page opens per read, broken
down by seeding phase.  This package provides the machinery to reproduce
those measurements:

* :mod:`repro.memsim.trace` -- an :class:`AddressSpace` in which every index
  structure allocates a region, and a :class:`MemoryTracer` through which the
  functional engines report every (address, size, phase) access.
* :mod:`repro.memsim.cache` -- direct-mapped / set-associative / fully
  associative cache models (the k-mer reuse cache of §IV-D is direct-mapped).
* :mod:`repro.memsim.dram` -- a channel/bank/row model with an open-page
  policy that counts row-buffer hits and page opens per phase (Figs 13-14),
  standing in for Ramulator (§V).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.memsim.cache import CacheModel, CacheStats
    from repro.memsim.dram import DramConfig, DramModel
    from repro.memsim.trace import (
        Access,
        AddressSpace,
        MemoryTracer,
        PhaseStats,
        Region,
    )

__all__ = [
    "Access",
    "AddressSpace",
    "CacheModel",
    "CacheStats",
    "DramConfig",
    "DramModel",
    "MemoryTracer",
    "PhaseStats",
    "Region",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.memsim.cache": ("CacheModel", "CacheStats"),
    "repro.memsim.dram": ("DramConfig", "DramModel"),
    "repro.memsim.trace": ("Access", "AddressSpace", "MemoryTracer",
                           "PhaseStats", "Region"),
})
