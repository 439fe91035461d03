"""Tests for the oracle tree cursor (``tests/cursor.py``): counts,
gathering, traffic granularity."""

import numpy as np
import pytest

from repro.core import ErtConfig, build_ert
from repro.memsim import MemoryTracer
from repro.seeding.oracle import count_occurrences, find_occurrences
from repro.sequence import GenomeSimulator
from repro.sequence.alphabet import decode
from tests.cursor import TreeCursor


@pytest.fixture(scope="module")
def ref():
    return GenomeSimulator(seed=41).generate(3000)


@pytest.fixture(scope="module")
def index(ref):
    return build_ert(ref, ErtConfig(k=5, max_seed_len=80,
                                    table_threshold=24, table_x=2))


def _kmer_string(code, k):
    return "".join("ACGT"[(code >> (2 * (k - 1 - j))) & 3] for j in range(k))


def test_cursor_counts_track_brute_force(ref, index):
    text = decode(ref.both_strands)
    k = index.config.k
    rng = np.random.default_rng(1)
    checked = 0
    for code in list(index.roots)[:300]:
        if rng.random() > 0.2:
            continue
        kmer = _kmer_string(code, k)
        cursor = TreeCursor(index, code)
        assert cursor.count == count_occurrences(text, kmer)
        # Extend along a real occurrence so every step must succeed.
        pos = text.find(kmer)
        suffix = text[pos + k:pos + k + 12]
        matched = kmer
        for ch in suffix:
            c = "ACGT".index(ch)
            expected = count_occurrences(text, matched + ch)
            ok = cursor.advance(c)
            assert ok == (expected > 0)
            if not ok:
                break
            matched += ch
            assert cursor.count == expected
        checked += 1
    assert checked > 10


def test_cursor_count_changed_flags(ref, index):
    """count_changed must fire exactly when the count drops."""
    text = decode(ref.both_strands)
    k = index.config.k
    for code in list(index.roots)[:60]:
        kmer = _kmer_string(code, k)
        pos = text.find(kmer)
        suffix = text[pos + k:pos + k + 10]
        cursor = TreeCursor(index, code)
        prev = cursor.count
        for ch in suffix:
            if not cursor.advance("ACGT".index(ch)):
                break
            assert cursor.count_changed == (cursor.count != prev)
            prev = cursor.count


def test_gather_equals_brute_force(ref, index):
    text = decode(ref.both_strands)
    k = index.config.k
    rng = np.random.default_rng(2)
    for code in list(index.roots)[:150]:
        if rng.random() > 0.3:
            continue
        kmer = _kmer_string(code, k)
        cursor = TreeCursor(index, code)
        assert cursor.gather() == find_occurrences(text, kmer)
        # And after a few extensions.
        pos = text.find(kmer)
        matched = kmer
        cursor = TreeCursor(index, code)
        for ch in text[pos + k:pos + k + 6]:
            if not cursor.advance("ACGT".index(ch)):
                break
            matched += ch
        assert cursor.gather() == find_occurrences(text, matched)


def test_gather_count_coherence(ref, index):
    """cursor.count must equal the number of gathered positions."""
    text = decode(ref.both_strands)
    k = index.config.k
    for code in list(index.roots)[:100]:
        cursor = TreeCursor(index, code)
        kmer = _kmer_string(code, k)
        pos = text.find(kmer)
        for ch in text[pos + k:pos + k + 4]:
            if not cursor.advance("ACGT".index(ch)):
                break
        assert cursor.count == len(cursor.gather())


def test_min_hits_stops_at_diverge(ref, index):
    """With min_hits above the branch occupancy, the walk must stop no
    later than the unrestricted walk and keep count >= min_hits."""
    text = decode(ref.both_strands)
    k = index.config.k
    for code in list(index.roots)[:80]:
        if index.kmer_count[code] < 3:
            continue
        kmer = _kmer_string(code, k)
        pos = text.find(kmer)
        free = TreeCursor(index, code, min_hits=1)
        bound = TreeCursor(index, code, min_hits=2)
        free_depth = bound_depth = 0
        for ch in text[pos + k:pos + k + 10]:
            c = "ACGT".index(ch)
            if free.advance(c):
                free_depth += 1
            if bound.advance(c):
                bound_depth += 1
                assert bound.count >= 2
        assert bound_depth <= free_depth


def test_snapshot_restore_roundtrip(ref, index):
    text = decode(ref.both_strands)
    k = index.config.k
    code = next(iter(index.roots))
    kmer = _kmer_string(code, k)
    pos = text.find(kmer)
    cursor = TreeCursor(index, code)
    for ch in text[pos + k:pos + k + 3]:
        cursor.advance("ACGT".index(ch))
    state = cursor.snapshot()
    other = TreeCursor(index, code, enter_root=False)
    other.restore(state, emit=False)
    assert other.count == cursor.count
    assert other.gather() == cursor.gather()


def test_traffic_is_line_granular(ref, index):
    tracer = MemoryTracer()
    index.attach_tracer(tracer)
    try:
        text = decode(ref.both_strands)
        k = index.config.k
        code = max(index.roots, key=lambda c: index.kmer_count[c])
        kmer = _kmer_string(code, k)
        pos = text.find(kmer)
        cursor = TreeCursor(index, code)
        for ch in text[pos + k:pos + k + 20]:
            if not cursor.advance("ACGT".index(ch)):
                break
        traversal = (tracer.by_phase.get("tree_root"),
                     tracer.by_phase.get("tree_traversal"))
        total = sum(p.requests for p in traversal if p is not None)
        assert total >= 1
        # Line-granular: every request fetched exactly 64 bytes.
        for phase in tracer.by_phase.values():
            assert phase.bytes == phase.requests * 64
    finally:
        index.attach_tracer(None)
