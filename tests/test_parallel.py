"""Tests for the repro.parallel batch execution engine.

The contract under test is determinism: for every task the pool path
(``workers=3``, shared-memory index, out-of-order completion) must
produce output byte-identical to the serial per-read loop, with the same
aggregated engine statistics and the same telemetry counters.  The
worker pools here run under the ``fork`` start method, so the suite
stays cheap even on a single-CPU container.
"""

import gc

import numpy as np
import pytest

from repro import telemetry
from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.core.io import index_to_buffer
from repro.parallel import (
    ParallelConfig,
    SharedIndexBuffer,
    align_pairs,
    align_reads,
    attach_index,
    default_workers,
    iter_chunks,
    pack_batch,
    seed_reads,
)
from repro.seeding.algorithm import seed_read
from repro.seeding.engine import EngineStats
from repro.sequence import ReadSimulator
from repro.sequence.simulate import PairedReadSimulator
from tests.nodes import decoded, forest
from tests.serialize import trees_equal

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def read_set(reference):
    """The 200-read determinism corpus (single-end)."""
    return ReadSimulator(reference, read_length=80, seed=21).simulate(200)


@pytest.fixture(scope="module")
def pair_set(reference):
    """50 fragments -> 100 interleaved paired-end reads."""
    pairs = PairedReadSimulator(reference, read_length=80,
                                seed=22).simulate(50)
    return [read for pair in pairs for read in (pair.first, pair.second)]


def serial():
    return ParallelConfig(workers=1, batch_size=64)


def pooled(batch_size=64):
    return ParallelConfig(workers=3, batch_size=batch_size)


# ----------------------------------------------------------------------
# Determinism: pool output is byte-identical to the serial path.
# ----------------------------------------------------------------------


def test_seed_pool_matches_serial_byte_for_byte(ert_index, read_set, params):
    lines0, stats0 = seed_reads(ert_index, read_set, params, serial())
    lines3, stats3 = seed_reads(ert_index, read_set, params, pooled())
    assert lines0 == lines3
    assert stats0.as_dict() == stats3.as_dict()
    assert lines0, "corpus produced no seeds -- test is vacuous"


def test_align_pool_matches_serial_byte_for_byte(ert_index, read_set,
                                                 params):
    recs0, stats0 = align_reads(ert_index, read_set, params, serial())
    recs3, stats3 = align_reads(ert_index, read_set, params, pooled())
    assert [r.to_line() for r in recs0] == [r.to_line() for r in recs3]
    assert stats0.as_dict() == stats3.as_dict()
    assert len(recs0) == len(read_set)


def test_paired_pool_matches_serial_byte_for_byte(ert_index, pair_set,
                                                  params):
    recs0, stats0 = align_pairs(ert_index, pair_set, params,
                                config=serial())
    recs3, stats3 = align_pairs(ert_index, pair_set, params,
                                config=pooled(batch_size=8))
    assert [r.to_line() for r in recs0] == [r.to_line() for r in recs3]
    assert stats0.as_dict() == stats3.as_dict()
    assert len(recs0) == len(pair_set)


def test_clean_pool_run_joins_its_executor(ert_index, read_set, params,
                                           monkeypatch):
    """A run whose every batch succeeded shuts its pool down waiting:
    the executor's manager thread has ended by the time ``shutdown``
    returns, so the interpreter's exit hook finds nothing of the pool
    to race (a ``wait=False`` shutdown returns with it still running)."""
    from concurrent.futures import ProcessPoolExecutor

    import repro.parallel.pool as pool_module

    alive = []

    class Recording(ProcessPoolExecutor):
        def shutdown(self, wait=True, **kwargs):
            manager = self._executor_manager_thread
            super().shutdown(wait=wait, **kwargs)
            alive.append(manager is not None and manager.is_alive())

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", Recording)
    lines, _ = seed_reads(ert_index, read_set[:16], params,
                          ParallelConfig(workers=2, batch_size=8))
    assert lines
    assert alive == [False]


def test_align_pairs_rejects_odd_read_count(ert_index, read_set):
    with pytest.raises(ValueError, match="even"):
        align_pairs(ert_index, read_set[:3])


def test_batch_size_does_not_change_output(ert_index, read_set, params):
    baseline, _ = seed_reads(ert_index, read_set[:40], params, serial())
    for batch_size in (1, 7, 64, 1000):
        config = ParallelConfig(workers=1, batch_size=batch_size)
        lines, _ = seed_reads(ert_index, read_set[:40], params, config)
        assert lines == baseline, f"batch_size={batch_size} diverged"


def test_pool_telemetry_matches_serial_counters(ert_index, read_set,
                                                params):
    telemetry.reset()
    telemetry.enable()
    try:
        seed_reads(ert_index, read_set[:60], params, serial())
        expected = telemetry.snapshot()
        telemetry.reset()
        seed_reads(ert_index, read_set[:60], params, pooled(batch_size=16))
        merged = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    # The batch-shaped quantities legitimately differ: 60 reads are one
    # serial seed_batch but four pooled ones, so the batch tally and the
    # per-batch span counts scale with the batching while every
    # per-read counter stays invariant.
    def per_read(counters):
        return {name: value for name, value in counters.items()
                if name != "kernels.batches"}

    assert per_read(merged["counters"]) == per_read(expected["counters"])
    assert sorted(merged["spans"]) == sorted(expected["spans"])


# ----------------------------------------------------------------------
# Short reads: below max(min_seed_len, k) nothing can seed -- the result
# is empty, never an exception, in every mode and pipeline.
# ----------------------------------------------------------------------


def _short_reads(k):
    """0-, 1-, and (k-1)-length reads (the ERT walk needs >= k)."""
    return [np.zeros(0, dtype=np.uint8),
            np.array([1], dtype=np.uint8),
            np.arange(k - 1, dtype=np.uint8) % 4]


def test_seed_read_returns_empty_for_short_reads(ert, params):
    for read in _short_reads(ert.index.config.k):
        result = seed_read(ert, read, params)
        assert result.all_seeds == []


@pytest.mark.parametrize("workers", [1, 2])
def test_seed_reads_skips_short_reads(ert_index, read_set, params, workers):
    mixed = _short_reads(ert_index.config.k) + [r.codes
                                                for r in read_set[:6]]
    normal, _ = seed_reads(ert_index, [r.codes for r in read_set[:6]],
                           params, ParallelConfig(workers=1))
    lines, _ = seed_reads(ert_index, mixed, params,
                          ParallelConfig(workers=workers, batch_size=2))
    # Short reads contribute zero seeds; the rest is unaffected.
    assert lines == normal


@pytest.mark.parametrize("workers", [1, 2])
def test_align_emits_unmapped_records_for_short_reads(ert_index, read_set,
                                                      params, workers):
    shorts = _short_reads(ert_index.config.k)
    mixed = shorts + [r.codes for r in read_set[:6]]
    records, _ = align_reads(ert_index, mixed, params,
                             ParallelConfig(workers=workers, batch_size=2))
    assert len(records) == len(mixed)
    for record in records[:len(shorts)]:
        assert record.flag & 0x4, "short read must align as unmapped"


def test_short_read_skip_counter(ert, params):
    telemetry.reset()
    telemetry.enable()
    try:
        for read in _short_reads(ert.index.config.k):
            seed_read(ert, read, params)
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert snap["counters"]["seeding.short_reads_skipped"] == 3
    assert snap["counters"]["seeding.reads"] == 3


# ----------------------------------------------------------------------
# Shared-memory index transport
# ----------------------------------------------------------------------


def _detach(shm):
    """Detach an attached segment once every buffer view is gone.

    Worker processes never need this (attachments live until process
    exit); in-process tests must drop the index and its exported
    pointers before the segment can close, hence the ``gc.collect``.
    """
    gc.collect()
    shm.close()


@pytest.mark.parametrize("prefix_merging", [False, True])
def test_shared_index_round_trip(reference, prefix_merging):
    config = ErtConfig(k=6, max_seed_len=120, table_threshold=32,
                       table_x=3, prefix_merging=prefix_merging)
    index = build_ert(reference, config)
    with SharedIndexBuffer(index) as shared:
        attached = attach_index(shared.name, shared.size)
        try:
            assert attached.config == index.config
            assert np.array_equal(attached.reference.codes,
                                  index.reference.codes)
            assert sorted(attached.roots) == sorted(index.roots)
            for code, tree in forest(index).items():
                assert trees_equal(decoded(attached, code), tree)
        finally:
            shm = attached._shm
            del attached
            _detach(shm)


def test_shared_buffer_size_matches_serialized_form(ert_index):
    payload = index_to_buffer(ert_index)
    with SharedIndexBuffer(ert_index) as shared:
        assert shared.size == len(payload)
        attached = attach_index(shared.name, shared.size)
        try:
            engine = ErtSeedingEngine(attached)
            read = ert_index.reference.codes[100:180]
            expected = seed_read(ErtSeedingEngine(ert_index), read)
            got = seed_read(engine, read)
            assert [s.hits for s in got.all_seeds] \
                == [s.hits for s in expected.all_seeds]
        finally:
            shm = attached._shm
            del engine, attached
            _detach(shm)


# ----------------------------------------------------------------------
# Batching primitives and config resolution
# ----------------------------------------------------------------------


def test_iter_chunks_covers_sequence_exactly():
    items = list(range(10))
    chunks = list(iter_chunks(items, 4))
    assert [list(c) for c in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert list(iter_chunks([], 4)) == []
    with pytest.raises(ValueError):
        list(iter_chunks(items, 0))


def test_pack_batch_preserves_reads_and_metadata(read_set):
    batch = pack_batch(read_set[:5])
    assert len(batch) == 5
    assert batch.names == tuple(r.name for r in read_set[:5])
    assert batch.qualities == tuple(r.quality for r in read_set[:5])
    for view, read in zip(batch.reads(), read_set[:5]):
        assert np.array_equal(view, read.codes)


def test_pack_batch_accepts_bare_arrays():
    arrays = [np.zeros(4, dtype=np.uint8), np.ones(6, dtype=np.uint8)]
    batch = pack_batch(arrays)
    assert [v.size for v in batch.reads()] == [4, 6]
    assert batch.names == ("", "")
    assert batch.qualities == ("", "")


def test_default_workers_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert default_workers() == 4
    assert ParallelConfig().resolved_workers() == 4
    assert ParallelConfig(workers=2).resolved_workers() == 2
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
        assert default_workers() == 1


# ----------------------------------------------------------------------
# Aggregation plumbing
# ----------------------------------------------------------------------


def test_engine_stats_add_dict_accumulates():
    stats = EngineStats(forward_searches=2, nodes_visited=5)
    stats.add_dict({"forward_searches": 3, "nodes_visited": 1,
                    "leaf_fetches": 7})
    assert stats.forward_searches == 5
    assert stats.nodes_visited == 6
    assert stats.leaf_fetches == 7


def test_telemetry_merge_snapshot_folds_counters_and_spans():
    telemetry.reset()
    telemetry.enable()
    try:
        telemetry.count("merge.test", 2)
        telemetry.observe("merge.hist", 5.0)
        telemetry.merge_snapshot({
            "counters": {"merge.test": 3, "merge.other": 1},
            "gauges": {"merge.gauge": 9.0},
            "histograms": {},
            "spans": {"phase": {"count": 4, "total_s": 1.0, "self_s": 1.0,
                                "min_s": 0.1, "max_s": 0.6}},
        })
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert snap["counters"]["merge.test"] == 5
    assert snap["counters"]["merge.other"] == 1
    assert snap["gauges"]["merge.gauge"] == 9.0
    assert snap["spans"]["phase"]["count"] == 4


def test_merge_snapshot_is_noop_while_disabled():
    telemetry.reset()
    telemetry.merge_snapshot({"counters": {"ghost": 1}, "gauges": {},
                              "histograms": {}, "spans": {}})
    telemetry.enable()
    try:
        assert "ghost" not in telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()


# ----------------------------------------------------------------------
# The serial fast path's batch hoists stay invisible to results.
# ----------------------------------------------------------------------


def test_begin_batch_precomputed_revcomp_matches_per_read(ert_index,
                                                          read_set,
                                                          params):
    plain = ErtSeedingEngine(ert_index)
    batched = ErtSeedingEngine(ert_index)
    reads = [r.codes for r in read_set[:20]]
    batched.begin_batch(reads)
    for read in reads:
        expected = seed_read(plain, read, params)
        got = seed_read(batched, read, params)
        assert [s.hits for s in got.all_seeds] \
            == [s.hits for s in expected.all_seeds]
