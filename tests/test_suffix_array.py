"""Unit and property tests for suffix array / BWT construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fmindex import bwt_from_sa, suffix_array
from repro.fmindex.suffix_array import pair_lcp, prefix_ranks
from repro.sequence.alphabet import revcomp_codes

texts = st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                 max_size=120).map(lambda xs: np.array(xs, dtype=np.uint8))


def brute_suffix_array(text):
    n = len(text)
    suffixes = sorted(range(n), key=lambda i: list(text[i:]))
    return suffixes


def brute_lcp(text, a, b):
    n = len(text)
    lcp = 0
    while a + lcp < n and b + lcp < n and text[a + lcp] == text[b + lcp]:
        lcp += 1
    return lcp


def test_known_example():
    # "banana" with b=1, a=0, n=2
    text = np.array([1, 0, 2, 0, 2, 0])
    assert suffix_array(text).tolist() == [5, 3, 1, 0, 4, 2]


def test_empty_text():
    assert suffix_array(np.empty(0, dtype=np.uint8)).size == 0


def test_single_char():
    assert suffix_array(np.array([2])).tolist() == [0]


def test_all_same_char():
    # Shorter suffixes sort first under the implicit-sentinel convention.
    assert suffix_array(np.zeros(5, dtype=np.uint8)).tolist() == [4, 3, 2, 1, 0]


@settings(max_examples=60)
@given(texts)
def test_matches_brute_force(text):
    assert suffix_array(text).tolist() == brute_suffix_array(text)


@pytest.mark.parametrize("text", [[2, 2, 3], [0, 9, 0], [3, 1, 2], [7]])
def test_codes_up_to_and_above_the_length_sort_right(text):
    """Codes >= n would overflow a key packed with multiplier n + 1."""
    assert suffix_array(np.array(text)).tolist() == brute_suffix_array(text)


def test_rejects_negative():
    with pytest.raises(ValueError):
        suffix_array(np.array([1, -1, 2]))


@st.composite
def capped_texts(draw):
    """Random, homopolymer, period 2..6 or both-strand texts over ACGT,
    with a cap from {1, 2, 3, 5, 8, 16}."""
    kind = draw(st.sampled_from(("random", "homopolymer", "periodic",
                                 "both_strands")))
    n = draw(st.integers(min_value=1, max_value=40))
    codes = st.integers(min_value=0, max_value=3)
    if kind == "homopolymer":
        text = [draw(codes)] * n
    elif kind == "periodic":
        period = draw(st.lists(codes, min_size=2, max_size=6))
        text = (period * n)[:n]
    else:
        text = draw(st.lists(codes, min_size=1, max_size=n))
    text = np.array(text, dtype=np.uint8)
    if kind == "both_strands":
        text = np.concatenate([text, revcomp_codes(text)])
    return text, draw(st.sampled_from((1, 2, 3, 5, 8, 16)))


@settings(max_examples=150, deadline=None)
@given(capped_texts())
def test_capped_levels_rank_by_their_span(case):
    """Every level ranks by exactly its first ``span`` characters, the last
    one (and only it) orders the suffixes by them, and ``pair_lcp`` over
    the levels is the LCP capped at ``cap``."""
    text, cap = case
    n = len(text)
    chars = text.tolist()
    levels, spans, orders = [], [], []
    for rank, span, order in prefix_ranks(text, cap):
        assert rank.dtype == np.int32 and rank.size == n + 1
        assert rank[n] == 0 and rank[:n].min() >= 1
        prefix = [tuple(chars[i:i + span]) for i in range(n)]
        distinct = {p: i for i, p in enumerate(set(prefix))}
        ids = np.array([distinct[p] for p in prefix])
        assert np.array_equal(rank[:n, None] == rank[None, :n],
                              ids[:, None] == ids[None, :])
        levels.append(rank)
        spans.append(span)
        orders.append(order)
    assert spans[-1] <= cap
    assert all(order is None for order in orders[:-1])
    if cap > 1:
        assert sorted(orders[-1].tolist()) == list(range(n))
        ordered = [prefix[i] for i in orders[-1]]
        assert ordered == sorted(ordered)
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    expected = [min(brute_lcp(chars, i, j), cap) for i, j in zip(a, b)]
    assert pair_lcp(levels, spans, a, b).tolist() == expected


@settings(max_examples=60)
@given(texts)
def test_is_permutation(text):
    sa = suffix_array(text)
    assert sorted(sa.tolist()) == list(range(len(text)))


@settings(max_examples=40)
@given(texts)
def test_bwt_matches_definition(text):
    """bwt[r] is the character preceding the r-th smallest suffix of
    text + sentinel (cyclically), with the sentinel suffix as row 0."""
    sa = suffix_array(text)
    bwt = bwt_from_sa(text, sa, sentinel=4)
    assert np.count_nonzero(bwt == 4) == 1
    n = len(text)
    logical = list(text) + [4]
    sa_full = [n] + sa.tolist()
    expected = [logical[(p - 1) % (n + 1)] for p in sa_full]
    assert bwt.tolist() == expected


def test_bwt_length_and_sentinel_row():
    text = np.array([0, 1, 2, 3, 0, 1], dtype=np.uint8)
    sa = suffix_array(text)
    bwt = bwt_from_sa(text, sa, sentinel=4)
    assert bwt.size == text.size + 1
    # The sentinel lands at the row of the suffix starting at 0.
    row = int(np.nonzero(bwt == 4)[0][0])
    assert sa[row - 1] == 0


def test_fmd_index_matches_the_oracle_on_a_simulated_genome():
    """Suffix array, BWT and occurrence checkpoints of a 4 kbp genome's
    both-strand text against a brute-force sort, the BWT's definition and
    one ``bincount`` per checkpoint block."""
    from repro.fmindex import FmdIndex
    from repro.fmindex.fmd import SENTINEL
    from repro.sequence import GenomeSimulator

    reference = GenomeSimulator(seed=77).generate(4000)
    fmd = FmdIndex(reference)
    text = reference.both_strands
    n = text.size
    # Comparing bytes puts a proper prefix first, as the index does.
    sa = sorted(range(n), key=lambda i: text[i:].tobytes())
    assert fmd.sa.tolist() == [n] + sa
    logical = text.tolist() + [SENTINEL]
    assert fmd.bwt.tolist() == [logical[p - 1] for p in [n] + sa]
    ppb = fmd.config.occ_positions_per_block
    cp = np.zeros((fmd.n_blocks + 1, 4), dtype=np.int64)
    for b in range(fmd.n_blocks):
        block = fmd.bwt[b * ppb:(b + 1) * ppb]
        cp[b + 1] = cp[b] + np.bincount(block[block != SENTINEL],
                                        minlength=4)
    assert fmd._occ_cp.dtype == cp.dtype
    assert np.array_equal(fmd._occ_cp, cp)
