"""The fetch model against the per-character oracle, access for access.

``repro.core.engine.ErtSeedingEngine`` walks node runs, lands on the
stored jump tables and keeps hit lists lazy; under a memory tracer or
reuse cache its walks report to a ``repro.core.walk.FetchModel``.  The
oracle (``tests/cursor.py``) steps one character at a time, lands on
tables it builds itself and gathers eagerly.  Per read they must agree
on the seeds, every ``EngineStats`` counter and every modelled access
(address, size, phase, region), on every index shape: jump tables of
x = 1, 2 and 4 or none, with and without prefix merging, each node
layout -- per read, per batch, and through the k-mer reuse driver.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    KmerReuseDriver,
    LayoutPolicy,
    build_ert,
)
from repro.core.arena import KIND_LEAF, KIND_UNIFORM
from repro.core.index import PHASE_TABLE
from repro.kernels import seed_batch
from repro.memsim import MemoryTracer
from repro.seeding import SeedingParams, seed_read
from tests.cursor import CursorSeedingEngine, build_jump_table

SHAPES = [(x, True, merging, layout)
          for x in (1, 2, 4) for merging in (False, True)
          for layout in LayoutPolicy] + [
          (1, False, merging, layout)
          for merging in (False, True) for layout in LayoutPolicy]


def _shape_id(shape):
    x, multilevel, merging, layout = shape
    tables = f"x{x}" if multilevel else "flat"
    return f"{tables}-{'pm' if merging else 'plain'}-{layout.value}"


@pytest.fixture(scope="module")
def genome(reference):
    return reference.codes[:3000].copy()


@pytest.fixture(scope="module", params=SHAPES, ids=_shape_id)
def shaped(request, genome):
    from repro.sequence.reference import Reference

    x, multilevel, merging, layout = request.param
    return build_ert(Reference("ref", genome), ErtConfig(
        k=5, max_seed_len=100, table_threshold=6, table_x=x,
        multilevel=multilevel, prefix_merging=merging, layout=layout))


def _reads(genome, data):
    """Reference slices with a few substitutions, some reverse
    complemented, plus one random read."""
    out = []
    for _ in range(data.draw(st.integers(2, 4))):
        length = data.draw(st.integers(8, 70))
        start = data.draw(st.integers(0, genome.size - length))
        read = genome[start:start + length].copy()
        for pos in data.draw(st.lists(st.integers(0, length - 1),
                                      max_size=3)):
            read[pos] = (read[pos] + data.draw(st.integers(1, 3))) % 4
        if data.draw(st.booleans()):
            read = (3 - read)[::-1].copy()
        out.append(read)
    seed = data.draw(st.integers(0, 2 ** 16))
    out.append(np.random.default_rng(seed).integers(
        0, 4, data.draw(st.integers(5, 40))).astype(np.uint8))
    return out


def _params(data):
    return SeedingParams(
        min_seed_len=data.draw(st.integers(5, 14)),
        max_mem_intv=data.draw(st.sampled_from([2, 20])),
        max_hits_per_seed=data.draw(st.sampled_from([None, 2, 500])))


def _traced(index, run):
    tracer = MemoryTracer(keep_trace=True)
    index.attach_tracer(tracer)
    try:
        result = run()
    finally:
        index.attach_tracer(None)
    return result, [(a.addr, a.size, a.phase, a.region)
                    for a in tracer.trace]


def _key(result):
    return [(s.read_start, s.length, s.hit_count, s.hits)
            for s in result.all_seeds]


def _per_read(engine, reads, params):
    """Per read: seeds, engine-stats delta and accesses."""
    rows = []
    for read in reads:
        before = engine.stats.as_dict()
        result, accesses = _traced(engine.index,
                                   lambda: seed_read(engine, read, params))
        after = engine.stats.as_dict()
        rows.append((_key(result),
                     {name: after[name] - before[name] for name in after},
                     accesses))
    return rows


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_engine_charges_the_oracle_traffic(shaped, genome, data):
    reads = _reads(genome, data)
    params = _params(data)
    limit = data.draw(st.sampled_from([2, 500]))
    oracle = CursorSeedingEngine(shaped, gather_limit=limit)
    engine = ErtSeedingEngine(shaped, gather_limit=limit)
    want = _per_read(oracle, reads, params)
    for i, (got, expect) in enumerate(zip(_per_read(engine, reads, params),
                                          want)):
        assert got[0] == expect[0], f"read {i}: seeds"
        assert got[1] == expect[1], f"read {i}: engine stats"
        assert got[2] == expect[2], f"read {i}: accesses"
    # The batch path charges the same stream, read after read.
    batch = ErtSeedingEngine(shaped, gather_limit=limit)
    results, accesses = _traced(
        shaped, lambda: seed_batch(batch, reads, params))
    assert [_key(r) for r in results] == [row[0] for row in want]
    assert accesses == [a for row in want for a in row[2]]


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reuse_driver_charges_the_oracle_traffic(shaped, genome, data):
    """The k-mer reuse driver interleaves a batch's reads and filters
    fetches through its reuse cache: same seeds per read, same stats
    and same access stream for the batch."""
    reads = _reads(genome, data)
    params = _params(data)

    def run(engine):
        driver = KmerReuseDriver(engine, params, cache_bytes=2048)
        results, accesses = _traced(shaped,
                                    lambda: driver.seed_batch(reads))
        return ([_key(r) for r in results], engine.stats.as_dict(),
                accesses, driver.last_stats.cache_hits)

    got = run(ErtSeedingEngine(shaped))
    want = run(CursorSeedingEngine(shaped))
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]


def _landings(index, parent_kind):
    """Table landings whose walk just stepped into ``jt_node`` from a
    parent of ``parent_kind`` (DIVERGE: a pooled, non-first child)."""
    flat = index.flat
    x = index.config.table_x
    for code in np.flatnonzero(flat.table_slot >= 0).tolist():
        slot = int(flat.table_slot[code])
        for subcode in range(4 ** x):
            nid = int(flat.jt_node[slot, subcode])
            if (flat.jt_matched[slot, subcode] == x
                    and flat.jt_within[slot, subcode] == 0
                    and flat.kind[nid - 1] == parent_kind):
                yield code, subcode, nid


@pytest.mark.parametrize("parent_kind", [KIND_LEAF, KIND_UNIFORM],
                         ids=["pooled-child", "used-up-run"])
def test_table_landing_charges_the_parent(reference, parent_kind):
    """A landing with nothing of the landed node read yet charges the
    node the oracle cursor holds -- its parent -- not ``nid - 1`` (for
    a pooled child, some LEAF) nor the settled node."""
    index = build_ert(reference, ErtConfig(
        k=6, max_seed_len=120, table_threshold=8, table_x=2))
    k, x = index.config.k, index.config.table_x
    flat, text = index.flat, index.text
    offset = index.layout.offset
    checked = 0
    for code, subcode, nid in _landings(index, parent_kind):
        parent = build_jump_table(index, code)[subcode].state.node
        base = index.tree_base[code]

        def line(node):
            return (base + int(offset[node])) // 64 * 64

        wrong = {line(nid)} | ({line(nid - 1)} if parent != nid - 1
                               else set())
        if line(parent) in wrong:
            continue  # these lines cannot tell the charges apart
        start = int(flat.pool[flat.pos_off[nid]])
        read = text[start:start + k + x + 10].copy()
        engine = ErtSeedingEngine(index)
        _, accesses = _traced(index,
                              lambda: engine.forward_search(read, 0))
        after = [a for a in accesses[
            [a[2] for a in accesses].index(PHASE_TABLE) + 1:]
            if a[3] == index.trees_region.name]
        assert after[0][0] == index.trees_region.base + line(parent), \
            (code, subcode, nid, parent)
        checked += 1
        if checked == 3:
            break
    assert checked
