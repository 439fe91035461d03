"""Failure injection: the verification harness must catch corruption.

The paper's bit-equivalence guarantee is only as good as the machinery
that checks it; these tests plant defects in an ERT and assert the
cross-engine comparison actually fires.
"""

import numpy as np
import pytest

from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.core.arena import KIND_LEAF, KIND_UNIFORM
from repro.seeding import OracleEngine, SeedingParams, compare_engines
from repro.sequence import GenomeSimulator, ReadSimulator


@pytest.fixture()
def setting():
    ref = GenomeSimulator(seed=151).generate(2500)
    reads = [r.codes for r in
             ReadSimulator(ref, read_length=60, seed=152).simulate(12)]
    params = SeedingParams(min_seed_len=10)
    oracle = OracleEngine(ref)
    return ref, reads, params, oracle


def _fresh_engine(ref):
    return ErtSeedingEngine(build_ert(ref, ErtConfig(k=5, max_seed_len=90)))


def test_clean_index_is_equivalent(setting):
    ref, reads, params, oracle = setting
    report = compare_engines(oracle, _fresh_engine(ref), reads, params)
    assert report.equivalent


def test_spurious_lep_bits_are_harmless(setting):
    """Setting *extra* LEP bits only adds backward searches whose MEMs
    the containment filter discards: output must stay identical.  (This
    is exactly why the LEP optimization is safe to precompute.)"""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    engine.index.lep_bits[:] = (1 << (engine.index.config.k - 1)) - 1
    report = compare_engines(oracle, engine, reads, params)
    assert report.equivalent


def test_corrupted_kmer_counts_detected(setting):
    """Wrong occurrence counts change LAST-round selectivity decisions
    and reported hit counts."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    counts = engine.index.kmer_count
    counts[counts > 0] = 1
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


def test_corrupted_prefix_len_detected(setting):
    """Truncated prefix lengths end forward searches too early."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    engine.index.prefix_len[:] = np.minimum(engine.index.prefix_len, 2)
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


def test_corrupted_leaf_position_detected(setting):
    """A leaf pointing at the wrong reference location yields wrong hits
    (and wrong ref-fetch comparisons)."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    flat = engine.index.flat
    leaves = np.flatnonzero((flat.kind == KIND_LEAF)
                            & (flat.leaf_text0 > 100))[:200]
    assert leaves.size > 0
    for nid in leaves:
        flat.leaf_text0[nid] -= 1
        off = flat.pos_off[nid]
        flat.pool[off:off + flat.count[nid]] -= 1
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent


def test_corrupted_uniform_chars_detected(setting):
    """Mutated UNIFORM strings change match lengths."""
    ref, reads, params, oracle = setting
    engine = _fresh_engine(ref)
    flat = engine.index.flat
    runs = np.flatnonzero((flat.kind == KIND_UNIFORM)
                          & (flat.chars_len >= 2))[:200]
    assert runs.size > 0
    for nid in runs:
        run = slice(flat.chars_off[nid],
                    flat.chars_off[nid] + flat.chars_len[nid])
        flat.chars_pool[run] = (flat.chars_pool[run] + 1) % 4
    report = compare_engines(oracle, engine, reads, params)
    assert not report.equivalent
