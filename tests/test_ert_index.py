"""Unit tests for ErtIndex internals: codes, tracing, cache filtering."""

import numpy as np
import pytest

from repro.core import EntryKind, ErtConfig, ErtSeedingEngine, build_ert
from repro.core.engine import _kmer_codes
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


def _matmul_codes(buf, k):
    """The k-mer codes as a ``(windows, k) @ 4^(k-1..0)`` matmul."""
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return np.lib.stride_tricks.sliding_window_view(buf, k) @ weights


@pytest.mark.parametrize("k", range(5, 16))
def test_kmer_codes_equal_the_matmul_form(k):
    """The shifted-OR codes equal the matmul form over a batch buffer
    that mixes reads shorter than k with longer ones, short reads at
    either edge, and over each read alone."""
    rng = np.random.default_rng(k)
    lengths = [k - 1, 1, k, 101, k + 1, 3, 60, k - 2]
    for order in (lengths, lengths[::-1]):
        reads = [rng.integers(0, 4, size=n).astype(np.uint8)
                 for n in order]
        buf = np.concatenate(reads)
        got = _kmer_codes(buf, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _matmul_codes(buf, k))
        for read in reads:
            if read.size >= k:
                assert np.array_equal(_kmer_codes(read, k),
                                      _matmul_codes(read, k))


def test_prepared_batch_codes(index):
    """A prepared batch holds each read's own codes on both strands,
    whatever its neighbours: None for a read shorter than k."""
    k = index.config.k
    rng = np.random.default_rng(5)
    reads = [rng.integers(0, 4, size=n).astype(np.uint8)
             for n in (k - 1, 101, k, 2, 40, k + 1)]
    engine = ErtSeedingEngine(index)
    prepared = engine._prepare(reads)
    for read in reads:
        # ERT001 exception: ``reads`` pins every key's referent.
        rc, codes, rc_codes = prepared[id(read)]  # repro: allow(ERT001)
        assert np.array_equal(rc, (3 - read)[::-1])
        if read.size < k:
            assert codes is None and rc_codes is None
        else:
            assert np.array_equal(codes, _matmul_codes(read, k))
            assert np.array_equal(rc_codes, _matmul_codes(rc, k))


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
