"""Tests for the brute-force oracle itself (it guards everything else)."""

import numpy as np

from repro.seeding import Mem, oracle_smems
from repro.seeding.oracle import (
    OracleEngine,
    count_occurrences,
    find_occurrences,
)
from repro.sequence import Reference
from repro.sequence.alphabet import encode


def test_count_occurrences_overlapping():
    assert count_occurrences("AAAA", "AA") == 3
    assert count_occurrences("ABAB", "ABA") == 1
    assert count_occurrences("ABC", "") == 4
    assert count_occurrences("ABC", "Z") == 0


def test_find_occurrences():
    assert find_occurrences("AAAA", "AA") == [0, 1, 2]
    assert find_occurrences("AAAA", "AA", limit=2) == [0, 1]
    assert find_occurrences("ABC", "Z") == []


def test_oracle_smems_by_hand():
    # Reference "ACGTACGG": X contains both strands; read "ACGTA" occurs
    # fully, so the only SMEM is the whole read.
    ref = Reference.from_string("ACGTACGG")
    smems = oracle_smems(ref, encode("ACGTA"))
    assert smems == [Mem(0, 5)]


def test_oracle_smems_split_read():
    # A read whose halves occur but whose middle junction does not.
    ref = Reference.from_string("AAAACCCCAAAAGGGG")
    read = encode("CCCCGGGG")
    smems = oracle_smems(ref, read, min_len=3)
    assert Mem(0, 4) in smems or any(m.start == 0 for m in smems)
    ends = {m.end for m in smems}
    assert 8 in ends  # something reaches the read end


def test_oracle_smems_no_containment():
    ref = Reference.from_string("ACGTGTACCGGTTAACGTAC")
    rng = np.random.default_rng(0)
    read = rng.integers(0, 4, size=30, dtype=np.uint8)
    smems = oracle_smems(ref, read)
    for a in smems:
        for b in smems:
            if a != b:
                assert not a.contains(b)


def test_oracle_engine_forward_search_contract():
    ref = Reference.from_string("ACGTACGTTTTT")
    engine = OracleEngine(ref)
    read = encode("ACGTACG")
    forward = engine.forward_search(read, 0)
    assert forward.end == 7  # whole read occurs
    assert forward.leps[-1] == forward.end
    assert list(forward.leps) == sorted(set(forward.leps))


def test_oracle_engine_backward_search():
    ref = Reference.from_string("ACGTACGTTTTT")
    engine = OracleEngine(ref)
    read = encode("ACGTACG")
    assert engine.backward_search(read, 7) == 0


def test_oracle_engine_min_hits():
    ref = Reference.from_string("ACGACGACGTTT")
    engine = OracleEngine(ref)
    read = encode("ACGACG")
    # "ACG" occurs 3 times on the forward strand; "ACGACG" twice.
    assert engine.locate(read, 0, 3)[0] >= 3
    fs1 = engine.forward_search(read, 0, min_hits=1)
    fs3 = engine.forward_search(read, 0, min_hits=3)
    assert fs1.end >= fs3.end


def test_oracle_engine_last_seed():
    ref = Reference.from_string("ACGTTGCAACGGTACCGGTA")
    engine = OracleEngine(ref)
    read = encode("ACGTTGCA")
    found = engine.last_seed(read, 0, min_len=4, max_intv=10)
    assert found is not None
    end, count = found
    assert end - 0 >= 4
    assert count == engine.locate(read, 0, end)[0]
    assert count < 10
