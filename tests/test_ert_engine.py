"""Per-function tests of the ERT engine against the oracle engine."""

import numpy as np
import pytest

from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.seeding import SeedingParams, generate_smems, oracle_smems


def test_forward_search_matches_oracle(ert, oracle, read_codes):
    for read in read_codes[:10]:
        ert.begin_read()
        for start in range(0, len(read) - 1, 7):
            a = ert.forward_search(read, start)
            b = oracle.forward_search(read, start)
            assert (a.end, a.leps) == (b.end, b.leps), start


def test_forward_search_min_hits_matches_oracle(ert, oracle, read_codes):
    for read in read_codes[:6]:
        ert.begin_read()
        for start in (0, 11, 23):
            for min_hits in (2, 3, 5):
                a = ert.forward_search(read, start, min_hits)
                b = oracle.forward_search(read, start, min_hits)
                assert (a.end, a.leps) == (b.end, b.leps), (start, min_hits)


def test_backward_search_matches_oracle(ert, oracle, read_codes):
    for read in read_codes[:10]:
        ert.begin_read()
        for end in range(5, len(read), 9):
            assert ert.backward_search(read, end) == \
                oracle.backward_search(read, end), end


def test_backward_search_min_hits_matches_oracle(ert, oracle, read_codes):
    for read in read_codes[:6]:
        ert.begin_read()
        for end in (20, 45, 79):
            for min_hits in (2, 4):
                assert ert.backward_search(read, end, min_hits) == \
                    oracle.backward_search(read, end, min_hits)


def test_locate_matches_oracle(ert, oracle, read_codes, params):
    for read in read_codes[:6]:
        ert.begin_read()
        smems = generate_smems(ert, read, params)
        for mem in smems:
            if mem.length < ert.index.config.k:
                continue
            a = ert.locate(read, mem.start, mem.end)
            b = oracle.locate(read, mem.start, mem.end)
            assert a[0] == b[0]
            assert list(a[1]) == list(b[1])


def test_locate_limit_contract(ert, oracle, read_codes):
    """Above the limit both engines return the count and no hits."""
    read = read_codes[0]
    ert.begin_read()
    count, hits = ert.locate(read, 0, ert.index.config.k, limit=1)
    ocount, ohits = oracle.locate(read, 0, ert.index.config.k, limit=1)
    assert count == ocount
    if count > 1:
        assert hits == [] and ohits == []


def test_locate_rejects_short_segments(ert, read_codes):
    ert.begin_read()  # nothing cached: locate has to walk
    with pytest.raises(ValueError):
        ert.locate(read_codes[0], 0, ert.index.config.k - 1)


def test_last_seed_matches_oracle(ert, oracle, read_codes):
    k = ert.index.config.k
    for read in read_codes[:8]:
        ert.begin_read()
        for start in range(0, len(read) - k, 11):
            for max_intv in (2, 10, 50):
                a = ert.last_seed(read, start, k + 4, max_intv)
                b = oracle.last_seed(read, start, k + 4, max_intv)
                assert a == b, (start, max_intv)


def test_seeding_rejects_min_seed_len_below_k(ert, read_codes):
    """LAST cannot count matches shorter than k: both ERT engines refuse
    ``min_seed_len < k`` up front, even on a read whose every LAST launch
    pruning would skip."""
    from repro.kernels import seed_batch
    from repro.seeding import seed_read

    k = ert.index.config.k
    noise = np.random.default_rng(5).integers(0, 4, 80).astype(np.uint8)
    short = SeedingParams(min_seed_len=k - 1)
    for read in (read_codes[0], noise):
        with pytest.raises(ValueError, match="below"):
            seed_read(ert, read, short)
        with pytest.raises(ValueError, match="below"):
            seed_batch(ert, [read], short)


def test_read_longer_than_max_seed_len_rejected(reference):
    config = ErtConfig(k=5, max_seed_len=30)
    engine = ErtSeedingEngine(build_ert(reference, config))
    long_read = np.zeros(31, dtype=np.uint8)
    with pytest.raises(ValueError):
        engine.forward_search(long_read, 0)


def test_smems_match_oracle_definition(ert, reference, read_codes, params):
    for read in read_codes[:8]:
        got = [m for m in generate_smems(ert, read, params)
               if m.length >= params.min_seed_len]
        want = oracle_smems(reference, read,
                            min_len=params.min_seed_len)
        assert sorted(got) == sorted(want)


def test_table_and_no_table_agree(reference, read_codes, params):
    """The §III-E jump tables are a pure acceleration: identical output."""
    with_tables = ErtSeedingEngine(build_ert(
        reference, ErtConfig(k=6, max_seed_len=120, table_threshold=8,
                             table_x=3)))
    without = ErtSeedingEngine(build_ert(
        reference, ErtConfig(k=6, max_seed_len=120, multilevel=False)))
    for read in read_codes[:8]:
        with_tables.begin_read()
        without.begin_read()
        for start in range(0, 70, 13):
            a = with_tables.forward_search(read, start)
            b = without.forward_search(read, start)
            assert (a.end, a.leps) == (b.end, b.leps)


def test_engine_stats_accumulate(ert, read_codes, params):
    """Search counters accumulate on every run; the traffic counters
    (nodes visited, leaf and tree-root fetches) only on a modelled one,
    with a memory tracer attached."""
    from repro.memsim import MemoryTracer
    from repro.seeding import seed_read

    ert.reset_stats()
    seed_read(ert, read_codes[0], params)
    assert ert.stats.index_lookups > 0
    assert ert.stats.forward_searches > 0
    assert ert.stats.backward_searches > 0
    assert ert.stats.nodes_visited == 0
    ert.index.attach_tracer(MemoryTracer())
    try:
        seed_read(ert, read_codes[0], params)
    finally:
        ert.index.attach_tracer(None)
    assert ert.stats.nodes_visited > 0
    assert ert.stats.tree_root_fetches > 0
