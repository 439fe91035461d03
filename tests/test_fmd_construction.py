"""The paper's construction route (§III-A3: "enumerating all possible
k-mers and then querying a pre-built FMD-index") as an oracle of the
suffix-sort builder's k-mer groups."""

import numpy as np
import pytest

from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.core.arena import flat_trees
from repro.fmindex import FmdIndex, FmdSeedingEngine
from repro.seeding import SeedingParams, assert_equivalent
from repro.sequence import GenomeSimulator, ReadSimulator
from repro.sequence.multi import MultiReference


@pytest.fixture(scope="module")
def ref():
    return GenomeSimulator(seed=171).generate(1200)


def _multi_contig():
    return MultiReference([GenomeSimulator(seed=172 + i).generate(
        300 + 200 * i, name=f"chr{i + 1}") for i in range(3)]).concatenated


@pytest.mark.parametrize("make, k", [
    (lambda: GenomeSimulator(seed=171).generate(1200), 5),
    (lambda: GenomeSimulator(seed=173).generate(400), 3),
    (_multi_contig, 4),
], ids=["1200bp-k5", "400bp-k3", "multi-contig-k4"])
def test_fmd_intervals_equal_the_arena_groups(make, k):
    """Every occurring k-mer's ``pattern_interval`` + ``locate`` is the
    pool run of its tree's root, and no other k-mer has a tree."""
    reference = make()
    flat = flat_trees(build_ert(reference, ErtConfig(
        k=k, max_seed_len=k + 40, table_threshold=8, table_x=2)))
    fmd = FmdIndex(reference)
    n = int(reference.both_strands.size)
    occurring = []
    for code in range(4 ** k):
        pattern = np.array([(code >> (2 * (k - 1 - j))) & 3
                            for j in range(k)], dtype=np.uint8)
        interval = fmd.pattern_interval(pattern)
        found = ([] if interval.is_empty else
                 sorted(p for p in fmd.locate(interval) if p + k <= n))
        nid = int(flat.roots[code])
        if not found:
            assert nid < 0, code
            continue
        occurring.append(code)
        off, count = int(flat.pos_off[nid]), int(flat.count[nid])
        assert sorted(flat.pool[off:off + count].tolist()) == found, code
    assert occurring == np.flatnonzero(flat.roots >= 0).tolist()


def test_fmd_and_ert_seed_identically(ref):
    config = ErtConfig(k=5, max_seed_len=70)
    engine = ErtSeedingEngine(build_ert(ref, config))
    baseline = FmdSeedingEngine(FmdIndex(ref))
    reads = [r.codes for r in
             ReadSimulator(ref, read_length=50, seed=172).simulate(8)]
    assert_equivalent(baseline, engine, reads, SeedingParams(min_seed_len=10))
