"""Unit tests for the FMD-index: extension, counting, locating, layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex import FmdConfig, FmdIndex
from repro.memsim import MemoryTracer
from repro.seeding.oracle import count_occurrences, find_occurrences
from repro.sequence import GenomeSimulator, Reference
from repro.sequence.alphabet import decode, encode


@pytest.fixture(scope="module")
def small_ref():
    return GenomeSimulator(seed=21).generate(1500)


@pytest.fixture(scope="module")
def small_index(small_ref):
    return FmdIndex(small_ref, FmdConfig.bwa_mem2())


def text_of(ref):
    return decode(ref.both_strands)


def test_count_matches_brute_force(small_ref, small_index):
    text = text_of(small_ref)
    rng = np.random.default_rng(1)
    for _ in range(40):
        start = int(rng.integers(0, len(text) - 12))
        length = int(rng.integers(1, 12))
        pattern = text[start:start + length]
        assert small_index.pattern_interval(encode(pattern)).s == \
            count_occurrences(text, pattern)


def test_count_absent_pattern(small_index, small_ref):
    text = text_of(small_ref)
    # Find a pattern that does not occur by extending until count is 0.
    pattern = "ACGT"
    while count_occurrences(text, pattern) > 0:
        pattern += "ACGT"[len(pattern) % 4]
    assert small_index.pattern_interval(encode(pattern)).s == 0


def test_locate_matches_brute_force(small_ref, small_index):
    text = text_of(small_ref)
    rng = np.random.default_rng(2)
    for _ in range(25):
        start = int(rng.integers(0, len(text) - 10))
        length = int(rng.integers(4, 10))
        pattern = text[start:start + length]
        bi = small_index.pattern_interval(encode(pattern))
        assert small_index.locate(bi) == find_occurrences(text, pattern)


def test_forward_equals_backward_of_revcomp(small_ref, small_index):
    """Forward extension must agree with a from-scratch backward search."""
    text = text_of(small_ref)
    rng = np.random.default_rng(3)
    for _ in range(20):
        start = int(rng.integers(0, len(text) - 8))
        pattern = text[start:start + 8]
        codes = encode(pattern)
        bi = small_index.init_interval(int(codes[0]))
        for c in codes[1:]:
            bi = small_index.forward_extend(bi, int(c))
        assert bi.s == count_occurrences(text, pattern)
        assert small_index.pattern_interval(codes).s == bi.s


def test_bi_interval_swap_is_revcomp(small_ref, small_index):
    from repro.sequence.alphabet import revcomp
    text = text_of(small_ref)
    rng = np.random.default_rng(4)
    for _ in range(10):
        start = int(rng.integers(0, len(text) - 6))
        pattern = text[start:start + 6]
        bi = small_index.pattern_interval(encode(pattern))
        swapped = small_index.pattern_interval(encode(revcomp(pattern)))
        assert bi.s == swapped.s
        assert bi.swapped().k == swapped.k


def test_empty_pattern_full_interval(small_index):
    bi = small_index.pattern_interval(np.empty(0, dtype=np.uint8))
    assert bi.s == small_index.n + 1


def test_extend_empty_interval_rejected(small_index):
    from repro.fmindex import BiInterval
    with pytest.raises(ValueError):
        small_index.backward_extend(BiInterval(0, 0, 0), 1)


def test_occ_consistency(small_index):
    """Occ via checkpoints equals a direct scan of the BWT."""
    bwt = small_index.bwt
    rng = np.random.default_rng(5)
    for _ in range(50):
        row = int(rng.integers(0, bwt.size + 1))
        base = int(rng.integers(0, 4))
        assert small_index.occ(base, row) == \
            int(np.count_nonzero(bwt[:row] == base))


def test_index_bytes_layouts(small_ref):
    mem = FmdIndex(small_ref, FmdConfig.bwa_mem())
    mem2 = FmdIndex(small_ref, FmdConfig.bwa_mem2())
    # BWA-MEM trades bandwidth for space: smaller index than BWA-MEM2.
    assert mem.index_bytes()["total"] < mem2.index_bytes()["total"]
    for idx in (mem, mem2):
        sizes = idx.index_bytes()
        assert sizes["total"] == sizes["occ"] + sizes["sa"]
        assert sizes["occ"] > 0 and sizes["sa"] > 0


def test_traffic_recorded_on_extension(small_ref):
    index = FmdIndex(small_ref, FmdConfig.bwa_mem2())
    tracer = MemoryTracer()
    index.attach_tracer(tracer)
    pattern = text_of(small_ref)[100:130]
    index.pattern_interval(encode(pattern))
    assert tracer.by_phase["occ_lookup"].requests > 0
    index.attach_tracer(None)


def test_locate_traffic_scales_with_sa_sampling(small_ref):
    """A sparser SA sampling must cost more LF-walk traffic per hit."""
    text = text_of(small_ref)
    pattern = text[200:220]

    def locate_bytes(config):
        index = FmdIndex(small_ref, config)
        tracer = MemoryTracer()
        index.attach_tracer(tracer)
        bi = index.pattern_interval(encode(pattern))
        before = tracer.total_bytes
        index.locate(bi)
        return tracer.total_bytes - before

    dense = locate_bytes(FmdConfig(name="dense", sa_sample=2))
    sparse = locate_bytes(FmdConfig(name="sparse", sa_sample=64))
    assert sparse > dense


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_small_random_genomes_count(seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=60, dtype=np.uint8)
    ref = Reference(name="t", codes=codes)
    index = FmdIndex(ref)
    text = decode(ref.both_strands)
    for start in range(0, 50, 7):
        pattern = text[start:start + 5]
        assert index.pattern_interval(encode(pattern)).s == \
            count_occurrences(text, pattern)
