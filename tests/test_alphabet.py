"""Unit tests for the 2-bit DNA alphabet."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sequence.alphabet import (
    BASES,
    AlphabetError,
    COMPLEMENT,
    decode,
    encode,
    revcomp,
    revcomp_codes,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


def test_encode_basic():
    assert encode("ACGT").tolist() == [0, 1, 2, 3]


def test_encode_lowercase():
    assert encode("acgt").tolist() == [0, 1, 2, 3]


def test_encode_empty():
    assert encode("").size == 0


def test_encode_rejects_ambiguous():
    with pytest.raises(AlphabetError):
        encode("ACGN")


def test_encode_rejects_whitespace():
    with pytest.raises(AlphabetError):
        encode("AC GT")


def _lookup_encode(seq):
    """The table lookup ``encode`` implements, as numpy indexing: the
    oracle for its ``bytes.translate`` form."""
    table = np.full(256, 255, dtype=np.uint8)
    for code, base in enumerate(BASES):
        table[ord(base)] = table[ord(base.lower())] = code
    codes = table[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    if codes.max(initial=0) > 3:
        bad = seq[int(np.argmax(codes > 3))]
        raise AlphabetError(f"non-ACGT character {bad!r} in sequence")
    return codes


@given(st.text(alphabet="ACGTacgtNn \x00\x7f-", max_size=60))
def test_encode_is_the_table_lookup(seq):
    """Same codes (a writable ``uint8`` array), or the same error naming
    the first bad character, for every ASCII input."""
    try:
        expected = _lookup_encode(seq)
    except AlphabetError as exc:
        with pytest.raises(AlphabetError) as raised:
            encode(seq)
        assert str(raised.value) == str(exc)
        return
    codes = encode(seq)
    assert codes.dtype == np.uint8 and codes.flags.writeable
    assert codes.tolist() == expected.tolist()


def test_decode_rejects_out_of_range():
    with pytest.raises(AlphabetError):
        decode(np.array([0, 4], dtype=np.uint8))


def test_complement_pairs():
    assert COMPLEMENT.tolist() == [3, 2, 1, 0]  # A <-> T, C <-> G


def test_revcomp_known():
    assert revcomp("AACG") == "CGTT"
    assert revcomp("") == ""
    assert revcomp("A") == "T"


@given(dna)
def test_roundtrip_encode_decode(seq):
    assert decode(encode(seq)) == seq


@given(dna)
def test_revcomp_involution(seq):
    assert revcomp(revcomp(seq)) == seq


@given(dna)
def test_revcomp_codes_matches_string(seq):
    assert decode(revcomp_codes(encode(seq))) == revcomp(seq)


@given(dna, dna)
def test_revcomp_antihomomorphism(a, b):
    assert revcomp(a + b) == revcomp(b) + revcomp(a)


def test_bases_order_is_code_order():
    for i, base in enumerate(BASES):
        assert encode(base)[0] == i
