"""The paper's primary contribution: Enumerated Radix Trees (ERT).

* :mod:`repro.core.config` -- :class:`ErtConfig`, all structural knobs
  (k-mer length, multi-level tables, layout policy, prefix merging).
* :mod:`repro.core.builder` -- index construction (§III-A3).
* :mod:`repro.core.index` -- the built :class:`ErtIndex`: enumerated index
  table with LEP bits, per-k-mer radix trees, byte-accurate regions.
* :mod:`repro.core.layout` -- node sizes and the tiled layout (§III-D),
  plus DFS/BFS alternatives for the ablation bench, over the arena.
* :mod:`repro.core.walker` -- the scalar cursor over arena node ids:
  forward walks, leaf gathering, traffic tags.
* :mod:`repro.core.engine` -- :class:`ErtSeedingEngine` (with the §III-B
  prefix-merged backward sweep and the §III-F pruning inherited from the
  canonical algorithm).
* :mod:`repro.core.reuse` -- the §III-C k-mer-reuse batched pipeline.
* :mod:`repro.core.census` -- hit-distribution and tree-shape statistics
  (paper Figs 8 and the §III-E depth claims).
* :mod:`repro.core.arena`, :mod:`repro.core.io` -- what an index is
  stored and walked as: the structure-of-arrays arena, one row per node
  of the customized radix tree (DIVERGE / UNIFORM / LEAF, with EMPTY
  arising as absent branches), and the frame -- one index file, mapped
  -- that holds it.  The paper's per-tree wire format, the
  reference the layout model's node sizes are tested against, lives
  with the tests (``tests/serialize.py``); nothing stores it.
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
