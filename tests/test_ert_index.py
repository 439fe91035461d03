"""Unit tests for ErtIndex internals: codes, tracing, cache filtering."""

import numpy as np
import pytest

from repro.core import EntryKind, ErtConfig, ErtSeedingEngine, build_ert
from repro.memsim import CacheModel, MemoryTracer
from repro.sequence import GenomeSimulator
from repro.sequence.alphabet import encode, kmer_codes


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


@pytest.mark.parametrize("k", range(1, 16))
def test_kmer_codes_equal_the_matmul_form(k):
    """The shifted-OR codes equal the matmul form over a batch buffer
    that mixes reads shorter than k with longer ones, short reads at
    either edge, and over each read alone; a read shorter than k has
    no code."""
    rng = np.random.default_rng(k)
    lengths = [max(k - 1, 0), 1, k, 101, k + 1, 3, 60, max(k - 2, 0)]
    for order in (lengths, lengths[::-1]):
        reads = [rng.integers(0, 4, size=n).astype(np.uint8)
                 for n in order]
        buf = np.concatenate(reads)
        got = kmer_codes(buf, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, _matmul_codes(buf, k))
        for read in reads:
            got = kmer_codes(read, k)
            assert got.dtype == np.int64
            if read.size >= k:
                assert np.array_equal(got, _matmul_codes(read, k))
            else:
                assert got.size == 0


def test_prepared_batch_codes(index):
    """A prepared batch holds each read's own strands and codes, whatever
    its neighbours: codes None for a read shorter than k."""
    k = index.config.k
    rng = np.random.default_rng(5)
    reads = [rng.integers(0, 4, size=n).astype(np.uint8)
             for n in (k - 1, 101, k, 2, 40, k + 1)]
    engine = ErtSeedingEngine(index)
    prepared = engine._prepare(reads)
    for read in reads:
        # ERT001 exception: ``reads`` pins every key's referent.
        strands = prepared[id(read)]  # repro: allow(ERT001)
        rc, codes, rc_codes = strands.rc_array, strands.codes, \
            strands.rc_codes
        assert strands.key == id(read)  # repro: allow(ERT001)
        assert strands.n == read.size
        assert strands.seq == read.tobytes()
        assert strands.rc == rc.tobytes()
        assert np.array_equal(rc, (3 - read)[::-1])
        if read.size < k:
            assert codes is None and rc_codes is None
        else:
            assert np.array_equal(codes, _matmul_codes(read, k))
            assert np.array_equal(rc_codes, _matmul_codes(rc, k))


def test_prefix_count_matches_tables(index):
    """``prefix_counts[l - 1]``, the table the walk's reseed probe
    reads, holds the sliding-window count of every l-mer of the
    double-strand text for l = 1..k."""
    text = index.text
    k = index.config.k
    assert len(index.prefix_counts) == k
    for length in range(1, k + 1):
        expected = np.bincount(_matmul_codes(text, length),
                               minlength=4 ** length)
        assert np.array_equal(index.prefix_counts[length - 1], expected)


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
