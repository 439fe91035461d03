"""Tests for the k-mer reuse batched pipeline (§III-C)."""

import pytest

from repro.core import ErtSeedingEngine, KmerReuseDriver
from repro.memsim import MemoryTracer
from repro.seeding import SeedingParams, seed_read


def test_batch_matches_per_read(ert, ert_index, read_codes, params):
    driver = KmerReuseDriver(ErtSeedingEngine(ert_index), params)
    batch = driver.seed_batch(read_codes)
    for read, result in zip(read_codes, batch):
        assert result.key() == seed_read(ert, read, params).key()


def test_batch_matches_per_read_with_pm(ert_pm, ert_pm_index, read_codes,
                                        params):
    driver = KmerReuseDriver(ErtSeedingEngine(ert_pm_index), params)
    batch = driver.seed_batch(read_codes)
    for read, result in zip(read_codes, batch):
        assert result.key() == seed_read(ert_pm, read, params).key()


def test_stats_populated(ert_index, read_codes, params):
    driver = KmerReuseDriver(ErtSeedingEngine(ert_index), params)
    driver.seed_batch(read_codes)
    stats = driver.last_stats
    assert stats.reads == len(read_codes)
    assert stats.tasks > 0
    assert 0 < stats.unique_kmers <= stats.tasks
    assert 0.0 <= stats.reuse_fraction < 1.0
    assert stats.cache_hits + stats.cache_misses > 0


def test_phase_seconds_populated_without_telemetry(ert_index, read_codes,
                                                   params):
    # The phase timers run on a batch-local Tracer, so the ablation bench
    # gets real seconds even with global telemetry disabled (the default).
    driver = KmerReuseDriver(ErtSeedingEngine(ert_index), params)
    driver.seed_batch(read_codes)
    stats = driver.last_stats
    assert stats.forward_seconds > 0.0
    assert stats.backward_seconds > 0.0
    assert stats.sort_seconds >= 0.0


@pytest.fixture(scope="module")
def coverage_setup():
    """A high-coverage batch: the §III-C reuse opportunity comes from the
    30-50x coverage of real sequencing runs, so the reuse test needs many
    reads per reference position (~8x here)."""
    from repro.core import ErtConfig, build_ert
    from repro.sequence import GenomeSimulator, ReadSimulator

    reference = GenomeSimulator(seed=71).generate(1500)
    reads = [r.codes for r in
             ReadSimulator(reference, read_length=60, seed=72).simulate(200)]
    index = build_ert(reference, ErtConfig(k=5, max_seed_len=90,
                                           table_threshold=32, table_x=3))
    return index, reads


def test_reuse_cache_reduces_backward_traffic(coverage_setup):
    """§III-C / Fig 14: at sequencing coverage, k-mer reuse must cut the
    index-lookup, tree-root and tree-traversal traffic (leaf gathering may
    rise because the right-to-left pruning no longer applies)."""
    index, reads = coverage_setup
    params = SeedingParams(min_seed_len=10, reseed=False, use_last=False)
    phases = ("index_lookup", "tree_root", "tree_traversal")
    tracer = MemoryTracer()
    index.attach_tracer(tracer)
    try:
        engine = ErtSeedingEngine(index)
        for read in reads:
            seed_read(engine, read, params)
        unbatched = sum(tracer.by_phase[p].bytes for p in phases)
        tracer = MemoryTracer()
        index.attach_tracer(tracer)
        driver = KmerReuseDriver(ErtSeedingEngine(index), params)
        driver.seed_batch(reads)
        batched = sum(tracer.by_phase[p].bytes for p in phases)
    finally:
        index.attach_tracer(None)
    assert batched < unbatched
    assert driver.last_stats.reuse_fraction > 0.3
    assert driver.last_stats.cache_hit_rate > 0.5


def test_cache_hit_rate_grows_with_duplicate_reads(ert_index, read_codes,
                                                   params):
    """Feeding the same reads twice must raise the reuse fraction."""
    driver = KmerReuseDriver(ErtSeedingEngine(ert_index), params)
    driver.seed_batch(read_codes[:8])
    single = driver.last_stats.reuse_fraction
    driver.seed_batch(read_codes[:8] + [r.copy() for r in read_codes[:8]])
    doubled = driver.last_stats.reuse_fraction
    assert doubled > single


def test_empty_batch(ert_index, params):
    driver = KmerReuseDriver(ErtSeedingEngine(ert_index), params)
    assert driver.seed_batch([]) == []
    assert driver.last_stats.tasks == 0
    assert driver.last_stats.reuse_fraction == 0.0
