"""Tests for banded Smith-Waterman and banded edit distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extend import (
    ScoringScheme,
    banded_edit_distance,
    banded_sw_traceback,
)
from repro.sequence.alphabet import encode

seqs = st.text(alphabet="ACGT", min_size=1, max_size=40)


def sw(q, t, band=41, scheme=None):
    return banded_sw_traceback(encode(q), encode(t), scheme, band)


def test_perfect_match():
    res = sw("ACGTACGT", "ACGTACGT")
    assert res.score == 8
    assert res.query_end == 8 and res.target_end == 8


def test_local_alignment_ignores_flanks():
    res = sw("ACGTACGT", "TTTTACGTACGTTTTT")
    assert res.score == 8


def test_single_mismatch():
    scheme = ScoringScheme()
    res = sw("ACGTACGT", "ACGTCCGT")
    # Either align through the mismatch or take the best exact block.
    assert res.score == max(8 * scheme.match + scheme.mismatch - scheme.match,
                            4)


def test_gap_scoring():
    # Query has one extra base: best local alignment opens one gap.
    res = sw("ACGTTACG", "ACGTACG")
    scheme = ScoringScheme()
    expected_with_gap = 7 * scheme.match + scheme.gap_open
    assert res.score >= max(expected_with_gap, 4)


def test_empty_inputs():
    res = banded_sw_traceback(np.empty(0, dtype=np.uint8), encode("ACG"))
    assert res.score == 0


def test_band_limits_cells():
    q = "ACGT" * 10
    wide = sw(q, q, band=41)
    narrow = sw(q, q, band=5)
    assert narrow.score == wide.score  # diagonal alignment fits any band


def test_band_can_miss_big_shift():
    # Target shifted by more than half a band: banded score must drop.
    q = "ACGTACGTACGTACGTACGT"
    t = "T" * 15 + q
    assert sw(q, t, band=5).score < sw(q, t, band=41).score


def test_scoring_validation():
    with pytest.raises(ValueError):
        ScoringScheme(match=0)
    with pytest.raises(ValueError):
        ScoringScheme(mismatch=1)
    with pytest.raises(ValueError):
        banded_sw_traceback(encode("A"), encode("A"), band=0)


def test_score_never_negative():
    assert sw("AAAA", "TTTT").score == 0


@settings(max_examples=40)
@given(seqs)
def test_self_alignment_is_full_score(seq):
    assert sw(seq, seq).score == len(seq)


@settings(max_examples=40)
@given(seqs, seqs)
def test_score_bounded_by_shorter_sequence(a, b):
    assert sw(a, b).score <= min(len(a), len(b))


def brute_edit(a, b):
    m, n = len(a), len(b)
    dp = list(range(n + 1))
    for i in range(1, m + 1):
        prev = dp[0]
        dp[0] = i
        for j in range(1, n + 1):
            cur = dp[j]
            dp[j] = min(prev + (a[i - 1] != b[j - 1]), dp[j] + 1,
                        dp[j - 1] + 1)
            prev = cur
    return dp[n]


def test_edit_distance_exact_cases():
    assert banded_edit_distance(encode("ACGT"), encode("ACGT")) == 0
    assert banded_edit_distance(encode("ACGT"), encode("ACCT")) == 1
    assert banded_edit_distance(encode("ACGT"), encode("AGT")) == 1


def test_edit_distance_band_overflow_returns_none():
    assert banded_edit_distance(encode("A" * 30), encode("T" * 30),
                                band=5) is None
    assert banded_edit_distance(encode("A" * 30), encode("A"), band=5) is None


def test_edit_distance_rejects_bad_band():
    with pytest.raises(ValueError):
        banded_edit_distance(encode("A"), encode("A"), band=0)


@settings(max_examples=40)
@given(seqs, seqs)
def test_edit_distance_matches_brute_force_when_certified(a, b):
    got = banded_edit_distance(encode(a), encode(b), band=41)
    expected = brute_edit(a, b)
    if got is not None:
        assert got == expected
    else:
        assert expected > 20  # only uncertifiable distances are refused
