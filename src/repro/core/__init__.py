"""The paper's primary contribution: Enumerated Radix Trees (ERT).

* :mod:`repro.core.config` -- :class:`ErtConfig`, all structural knobs
  (k-mer length, multi-level tables, layout policy, prefix merging).
* :mod:`repro.core.nodes` -- the four node kinds of the customized radix
  tree (UNIFORM / DIVERGE / LEAF, with EMPTY arising as absent branches).
* :mod:`repro.core.builder` -- index construction (§III-A3).
* :mod:`repro.core.index` -- the built :class:`ErtIndex`: enumerated index
  table with LEP bits, per-k-mer radix trees, byte-accurate regions.
* :mod:`repro.core.layout` -- node serialization and the tiled layout
  (§III-D), plus DFS/BFS alternatives for the ablation bench.
* :mod:`repro.core.walker` -- forward walks, leaf gathering, traffic tags.
* :mod:`repro.core.engine` -- :class:`ErtSeedingEngine` (with the §III-B
  prefix-merged backward sweep and the §III-F pruning inherited from the
  canonical algorithm).
* :mod:`repro.core.reuse` -- the §III-C k-mer-reuse batched pipeline.
* :mod:`repro.core.census` -- hit-distribution and tree-shape statistics
  (paper Figs 8 and the §III-E depth claims).
* :mod:`repro.core.arena`, :mod:`repro.core.io` -- what an index is
  stored as: the structure-of-arrays arena the batched kernels walk
  (and node objects are decoded from), and the archive / shared-buffer
  formats that hold it.  :mod:`repro.core.serialize` is the paper's
  per-tree wire format, kept as the reference the layout model's node
  sizes are tested against; nothing stores it or imports it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.builder import build_ert
    from repro.core.census import (
        depth_census,
        hit_distribution,
        index_census,
    )
    from repro.core.config import ErtConfig, LayoutPolicy
    from repro.core.engine import ErtSeedingEngine
    from repro.core.index import EntryKind, ErtIndex
    from repro.core.io import load_ert, save_ert
    from repro.core.reuse import KmerReuseDriver, ReuseStats

__all__ = [
    "EntryKind",
    "ErtConfig",
    "ErtIndex",
    "ErtSeedingEngine",
    "KmerReuseDriver",
    "LayoutPolicy",
    "ReuseStats",
    "build_ert",
    "depth_census",
    "hit_distribution",
    "index_census",
    "load_ert",
    "save_ert",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.builder": ("build_ert",),
    "repro.core.census": ("depth_census", "hit_distribution",
                          "index_census"),
    "repro.core.config": ("ErtConfig", "LayoutPolicy"),
    "repro.core.engine": ("ErtSeedingEngine",),
    "repro.core.index": ("EntryKind", "ErtIndex"),
    "repro.core.io": ("load_ert", "save_ert"),
    "repro.core.reuse": ("KmerReuseDriver", "ReuseStats"),
})
