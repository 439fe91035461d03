"""Unit tests for the cache models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsim import CacheModel


def test_direct_mapped_conflict():
    cache = CacheModel(size=4 * 64, line_size=64, ways=1)
    assert not cache.lookup(0)
    assert cache.lookup(0)
    # Same set (4 sets), different tag: evicts.
    assert not cache.lookup(4 * 64)
    assert not cache.lookup(0)


def test_fully_associative_lru():
    cache = CacheModel(size=2 * 64, line_size=64, ways=None)
    cache.lookup(0)
    cache.lookup(64)
    cache.lookup(0)        # refresh 0; LRU is now 64
    cache.lookup(128)      # evicts 64
    assert cache.lookup(0)
    assert not cache.lookup(64)


def test_set_associative_respects_ways():
    cache = CacheModel(size=4 * 64, line_size=64, ways=2)
    assert cache.n_sets == 2
    # Three lines mapping to set 0: 0, 128, 256.
    cache.lookup(0)
    cache.lookup(128)
    cache.lookup(256)  # evicts 0
    assert not cache.lookup(0)


def test_hit_rate():
    cache = CacheModel(size=64, line_size=64)
    assert cache.stats.hit_rate == 0.0
    cache.lookup(0)
    cache.lookup(0)
    assert cache.stats.hit_rate == 0.5


def test_validation():
    with pytest.raises(ValueError):
        CacheModel(size=100, line_size=64)
    with pytest.raises(ValueError):
        CacheModel(size=64, line_size=48)
    with pytest.raises(ValueError):
        CacheModel(size=3 * 64, line_size=64, ways=2)


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=200))
def test_repeat_access_always_hits(addrs):
    """Accessing the same address twice in a row is always a hit."""
    cache = CacheModel(size=16 * 64, line_size=64, ways=2)
    for addr in addrs:
        cache.lookup(addr)
        assert cache.lookup(addr)


@given(st.lists(st.integers(min_value=0, max_value=64 * 8 - 1), max_size=300))
def test_small_working_set_eventually_all_hits(addrs):
    """A working set no larger than the cache never misses twice per line."""
    cache = CacheModel(size=8 * 64, line_size=64, ways=None)
    for addr in addrs:
        cache.lookup(addr)
    distinct_lines = {a // 64 for a in addrs}
    assert cache.stats.misses == len(distinct_lines)

