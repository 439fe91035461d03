"""Tests for the canonical three-round seeding algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import Mem, SeedingParams, generate_smems, seed_read
from repro.seeding.algorithm import filter_contained


def test_filter_contained_basic():
    mems = [Mem(0, 10), Mem(2, 8), Mem(5, 15), Mem(0, 10)]
    assert filter_contained(mems) == [Mem(0, 10), Mem(5, 15)]


def test_filter_contained_keeps_overlapping_staircase():
    mems = [Mem(0, 5), Mem(2, 8), Mem(4, 12)]
    assert filter_contained(mems) == mems


def test_filter_contained_same_start():
    assert filter_contained([Mem(3, 6), Mem(3, 9)]) == [Mem(3, 9)]


def test_filter_contained_empty():
    assert filter_contained([]) == []


def _brute_force_filter(mems):
    """The SMEM condition by definition: the distinct MEMs not contained
    in another one, ordered by ``(start, -end)``."""
    distinct = set(mems)
    kept = [m for m in distinct
            if not any(o != m and o.contains(m) for o in distinct)]
    return sorted(kept, key=lambda m: (m.start, -m.end))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 12)),
                max_size=14))
def test_filter_contained_equals_brute_force(spans):
    mems = [Mem(start, start + length) for start, length in spans]
    assert filter_contained(mems) == _brute_force_filter(mems)


def test_split_len():
    assert SeedingParams(min_seed_len=19).split_len == 28
    assert SeedingParams(min_seed_len=12).split_len == 18


def test_pruning_is_output_invariant(oracle, read_codes, params):
    """§III-F pruning must not change the SMEM set, only skip work."""
    pruned = SeedingParams(min_seed_len=params.min_seed_len,
                           use_pruning=True)
    unpruned = SeedingParams(min_seed_len=params.min_seed_len,
                             use_pruning=False)
    for read in read_codes[:8]:
        a = generate_smems(oracle, read, pruned)
        b = generate_smems(oracle, read, unpruned)
        assert a == b


def test_pruning_skips_backward_searches(fmd, read_codes, params):
    fmd.reset_stats()
    for read in read_codes[:8]:
        generate_smems(fmd, read,
                       SeedingParams(min_seed_len=12, use_pruning=False))
    unpruned = fmd.stats.backward_searches
    fmd.reset_stats()
    for read in read_codes[:8]:
        generate_smems(fmd, read,
                       SeedingParams(min_seed_len=12, use_pruning=True))
    pruned = fmd.stats.backward_searches
    assert pruned < unpruned
    assert fmd.stats.pruned_backward_searches > 0


def test_smems_respect_min_seed_len(fmd, read_codes):
    params = SeedingParams(min_seed_len=15)
    for read in read_codes[:5]:
        result = seed_read(fmd, read, params)
        for seed in result.smems:
            assert seed.length >= 15


def test_smems_are_containment_free(fmd, read_codes, params):
    for read in read_codes[:5]:
        result = seed_read(fmd, read, params)
        intervals = [s.interval for s in result.smems]
        for a in intervals:
            for b in intervals:
                if a != b:
                    assert not a.contains(b)


def test_reseed_seeds_have_more_hits(fmd, read_codes):
    """Reseeded matches must be strictly less selective than the SMEM
    that triggered them."""
    params = SeedingParams(min_seed_len=12, split_width=50)
    for read in read_codes[:10]:
        result = seed_read(fmd, read, params)
        if not result.reseed_seeds:
            continue
        max_smem_occ = max(s.hit_count for s in result.smems)
        for seed in result.reseed_seeds:
            assert seed.hit_count >= 2
            # Reseeding asked for > occ hits of some triggering SMEM.
            assert seed.hit_count <= max(max_smem_occ * 1000, 1000)


def test_last_seeds_selectivity(fmd, read_codes, params):
    for read in read_codes[:10]:
        result = seed_read(fmd, read, params)
        for seed in result.last_seeds:
            assert seed.length >= params.min_seed_len
            assert seed.hit_count < params.max_mem_intv


def test_rounds_can_be_disabled(fmd, read_codes):
    params = SeedingParams(min_seed_len=12, reseed=False, use_last=False)
    result = seed_read(fmd, read_codes[0], params)
    assert result.reseed_seeds == []
    assert result.last_seeds == []


def test_hits_match_hit_count_when_small(fmd, read_codes, params):
    for read in read_codes[:5]:
        result = seed_read(fmd, read, params)
        for seed in result.all_seeds:
            if seed.hits:
                assert len(seed.hits) == seed.hit_count
            assert seed.hit_count >= 1
