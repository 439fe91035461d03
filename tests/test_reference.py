"""Unit tests for Reference and double-strand coordinate mapping."""

import numpy as np
import pytest

from repro.sequence import Reference, Strand, revcomp
from repro.sequence.alphabet import decode


def test_from_string_roundtrip():
    ref = Reference.from_string("ACGTTGCA", name="r")
    assert ref.sequence == "ACGTTGCA"
    assert len(ref) == 8
    assert ref.name == "r"


def test_rejects_empty():
    with pytest.raises(ValueError):
        Reference(name="r", codes=np.empty(0, dtype=np.uint8))


def test_rejects_bad_codes():
    with pytest.raises(ValueError):
        Reference(name="r", codes=np.array([0, 5], dtype=np.uint8))


def test_rejects_2d():
    with pytest.raises(ValueError):
        Reference(name="r", codes=np.zeros((2, 2), dtype=np.uint8))


def test_both_strands_structure():
    ref = Reference.from_string("AACG")
    both = decode(ref.both_strands)
    assert both == "AACG" + revcomp("AACG")


def test_both_strands_is_self_revcomp():
    ref = Reference.from_string("ACGTTGCAAT")
    both = decode(ref.both_strands)
    assert revcomp(both) == both


def test_to_forward_forward_hit():
    ref = Reference.from_string("ACGTACGTAC")
    hit = ref.to_forward(2, 4)
    assert hit.strand is Strand.FORWARD
    assert hit.start == 2 and hit.length == 4 and hit.end == 6


def test_to_forward_reverse_hit():
    ref = Reference.from_string("AAACCC")
    # X = AAACCC GGGTTT; a hit at X[6:9] ("GGG") is revcomp of fwd [3:6].
    hit = ref.to_forward(6, 3)
    assert hit.strand is Strand.REVERSE
    assert hit.start == 3 and hit.length == 3


def test_to_forward_junction_returns_none():
    ref = Reference.from_string("AAACCC")
    assert ref.to_forward(4, 4) is None


def test_to_forward_out_of_range():
    ref = Reference.from_string("AAACCC")
    with pytest.raises(ValueError):
        ref.to_forward(10, 5)
    with pytest.raises(ValueError):
        ref.to_forward(-1, 2)


def test_reverse_hit_sequence_consistency():
    ref = Reference.from_string("ACGTTACGGA")
    both = ref.both_strands
    n = len(ref)
    for pos in range(n, 2 * n - 3):
        hit = ref.to_forward(pos, 3)
        fwd = decode(ref.codes[hit.start:hit.end])
        assert revcomp(fwd) == decode(both[pos:pos + 3])
