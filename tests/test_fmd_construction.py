"""The paper's FMD-query construction path must match the scan path."""

import numpy as np
import pytest

from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.core.serialize import trees_equal
from repro.seeding import SeedingParams, assert_equivalent
from repro.sequence import GenomeSimulator, ReadSimulator


@pytest.fixture(scope="module")
def ref():
    return GenomeSimulator(seed=171).generate(1200)


def test_fmd_and_scan_builders_agree(ref):
    config = ErtConfig(k=5, max_seed_len=70, table_threshold=16, table_x=2)
    via_scan = build_ert(ref, config, method="scan")
    via_fmd = build_ert(ref, config, method="fmd")

    assert np.array_equal(via_scan.entry_kind, via_fmd.entry_kind)
    assert np.array_equal(via_scan.lep_bits, via_fmd.lep_bits)
    assert np.array_equal(via_scan.kmer_count, via_fmd.kmer_count)
    assert set(via_scan.roots) == set(via_fmd.roots)
    for code, root in via_scan.roots.items():
        assert trees_equal(root, via_fmd.roots[code]), code
    assert via_scan.tree_base == via_fmd.tree_base
    assert via_scan.index_bytes() == via_fmd.index_bytes()


def test_fmd_built_index_seeds_identically(ref):
    config = ErtConfig(k=5, max_seed_len=70)
    engine = ErtSeedingEngine(build_ert(ref, config, method="fmd"))
    baseline = ErtSeedingEngine(build_ert(ref, config, method="scan"))
    reads = [r.codes for r in
             ReadSimulator(ref, read_length=50, seed=172).simulate(8)]
    assert_equivalent(baseline, engine, reads, SeedingParams(min_seed_len=10))


def test_unknown_method_rejected(ref):
    with pytest.raises(ValueError):
        build_ert(ref, ErtConfig(k=4, max_seed_len=50), method="magic")
