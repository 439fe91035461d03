"""Tests for banded Smith-Waterman."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extend import ScoringScheme, banded_sw_traceback
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
