"""FMD-index substrate: the baseline index BWA-MEM / BWA-MEM2 seed with.

Implements, from scratch:

* :mod:`repro.fmindex.suffix_array` -- the one suffix sorter (int32
  packed-key prefix doubling; uncapped here, capped for the ERT builder,
  :mod:`repro.core.builder`) and the Burrows-Wheeler transform;
* :mod:`repro.fmindex.fmd` -- the bidirectional FMD-index of Li (2012):
  count table, checkpointed occurrence table with a configurable compression
  layout (BWA-MEM's 128-positions-per-block vs BWA-MEM2's 64), sampled
  suffix array with LF-walk locate, and bi-interval backward/forward
  extension over the double-strand text ``X = R . revcomp(R)``;
* :mod:`repro.fmindex.engine` -- the :class:`FmdSeedingEngine` adapter that
  plugs the FMD-index into the engine-agnostic SMEM algorithm of
  :mod:`repro.seeding`.

Memory traffic is reported through :mod:`repro.memsim` so the paper's
Fig 12 (requests and bytes per read) can be regenerated.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# Eager: ``suffix_array`` the function shares its submodule's name, and
# the import system binds the *module* to that package attribute when
# the submodule first loads -- unless the load happens here, before
# this line rebinds it.  (The module needs numpy and nothing else.)
from repro.fmindex.suffix_array import bwt_from_sa, suffix_array

if TYPE_CHECKING:
    from repro.fmindex.engine import FmdSeedingEngine
    from repro.fmindex.fmd import BiInterval, FmdConfig, FmdIndex

__all__ = [
    "BiInterval",
    "FmdConfig",
    "FmdIndex",
    "FmdSeedingEngine",
    "bwt_from_sa",
    "suffix_array",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.fmindex.engine": ("FmdSeedingEngine",),
    "repro.fmindex.fmd": ("BiInterval", "FmdConfig", "FmdIndex"),
})
