"""Unit tests for ErtIndex internals: codes, tracing, cache filtering."""

import numpy as np
import pytest

from repro.core import EntryKind, ErtConfig, ErtSeedingEngine, build_ert
from repro.memsim import CacheModel, MemoryTracer
from repro.sequence import GenomeSimulator
from repro.sequence.alphabet import encode


@pytest.fixture(scope="module")
def index():
    ref = GenomeSimulator(seed=121).generate(1500)
    return build_ert(ref, ErtConfig(k=5, max_seed_len=60,
                                    table_threshold=16, table_x=2))


def test_kmer_code_packing(index):
    assert index.kmer_code(encode("AAAAA")) == 0
    assert index.kmer_code(encode("AAAAC")) == 1
    assert index.kmer_code(encode("CAAAA")) == 1 << 8
    # Short inputs pad with A (zero bits) on the right.
    assert index.kmer_code(encode("C")) == 1 << 8
    assert index.kmer_code(encode("CA")) == 1 << 8


def test_prefix_count_matches_tables(index):
    """The engine answers a segment of 1..k characters from the
    prefix-count tables, charging one table entry when traced."""
    text = index.text
    engine = ErtSeedingEngine(index)
    for pattern in ("A", "AC", "ACG", "ACGT", "ACGTA"):
        codes = encode(pattern)
        # Manual sliding-window count over the double-strand text.
        k = len(codes)
        windows = np.lib.stride_tricks.sliding_window_view(text, k)
        expected = int(np.count_nonzero((windows == codes).all(axis=1)))
        engine.begin_read()
        assert engine.count(codes, 0, k) == expected
        tracer = MemoryTracer()
        index.attach_tracer(tracer)
        try:
            engine.count(codes, 0, k)
        finally:
            index.attach_tracer(None)
        assert tracer.total_requests == 1


def test_prefix_count_validates_length(index):
    engine = ErtSeedingEngine(index)
    with pytest.raises(ValueError):
        engine.count(encode("ACGTAC"), 2, 2)


def test_trace_goes_through_reuse_cache(index):
    tracer = MemoryTracer()
    index.attach_tracer(tracer)
    index.reuse_cache = CacheModel(64 * 1024, ways=1)
    try:
        index.trace_index_entry(123)
        first = tracer.total_requests
        index.trace_index_entry(123)  # same line: cache hit, no traffic
        assert tracer.total_requests == first
        index.trace_index_entry(123 + 5000)  # different line: miss
        assert tracer.total_requests > first
    finally:
        index.reuse_cache = None
        index.attach_tracer(None)


def test_trace_noop_without_tracer(index):
    # Must not raise and must not record anything.
    index.trace_index_entry(5)
    index.trace_ref_line(100)


def test_cache_counts_even_without_tracer(index):
    cache = CacheModel(64 * 1024, ways=1)
    index.reuse_cache = cache
    try:
        index.trace_index_entry(7)
        index.trace_index_entry(7)
    finally:
        index.reuse_cache = None
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_table_slots_are_dense(index):
    table_slot = index.flat.table_slot
    codes = np.flatnonzero(index.entry_kind == EntryKind.TABLE)
    assert np.flatnonzero(table_slot >= 0).tolist() == codes.tolist()
    assert table_slot[codes].tolist() == list(range(codes.size))


def test_regions_are_disjoint(index):
    regions = sorted(index.space.regions.values(), key=lambda r: r.base)
    for a, b in zip(regions, regions[1:]):
        assert a.end <= b.base


def test_entry_kind_matches_roots(index):
    for code, root in index.roots.items():
        assert index.entry_kind[code] != EntryKind.EMPTY
        assert root == index.flat.roots[code] >= 0
    empties = np.flatnonzero(index.entry_kind == EntryKind.EMPTY)
    for code in empties[:50]:
        assert int(code) not in index.roots
