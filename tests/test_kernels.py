"""Scalar-vs-vector kernel equivalence (the oracle contract).

The batched kernels (:mod:`repro.kernels`) promise byte-identical output
to the scalar paths at every level: seeds from :func:`seed_batch`, SAM
records through the scheduler with ``kernels="vector"`` at any worker
count, and scores/coordinates from the wavefront Smith-Waterman.  These
tests fuzz that promise over adversarial reads (short, homopolymer,
error-heavy, reverse-complement) and band-edge SW geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.extend.pipeline import ReadAligner
from repro.extend.paired import PairedAligner
from repro.extend.smith_waterman import (
    DEFAULT_SCHEME,
    ScoringScheme,
    SwWorkspace,
    banded_smith_waterman,
)
from repro.extend.traceback import banded_sw_traceback
from repro.kernels import (
    KernelBatchStats,
    batched_banded_sw,
    batched_sw_traceback,
    resolve_kernels,
    seed_batch,
    vector_decline_reason,
)
from repro.kernels.traceback import MAX_WAVEFRONT_LANES, _plane_dtype
from repro.memsim.trace import MemoryTracer
from repro.parallel import (
    ParallelConfig,
    align_pairs,
    align_reads,
    map_batches,
    pack_batch,
    seed_reads,
)
from repro.seeding.algorithm import seed_read


def _seed_key(result, seeds=None):
    return [(s.read_start, s.length, s.hit_count, tuple(s.hits))
            for s in (result.all_seeds if seeds is None else seeds)]


def _assert_batch_matches_scalar(index, read_list, params,
                                 vector_indexes=None, gather_limit=500):
    """``seed_batch`` over each of ``vector_indexes`` (default: ``index``
    itself) against the ``seed_read`` oracle over ``index``; returns the
    oracle's engine and the last vector one for counter comparisons."""
    scalar_engine = ErtSeedingEngine(index, gather_limit=gather_limit)
    scalar = [seed_read(scalar_engine, r, params) for r in read_list]
    for vector_index in vector_indexes or (index,):
        vector_engine = ErtSeedingEngine(vector_index,
                                         gather_limit=gather_limit)
        vector = seed_batch(vector_engine, read_list, params)
        assert len(scalar) == len(vector)
        for i, (a, b) in enumerate(zip(scalar, vector)):
            assert _seed_key(a) == _seed_key(b), f"read {i} diverged"
        assert (scalar_engine.stats.truncated_hit_lists
                == vector_engine.stats.truncated_hit_lists)
    return scalar_engine, vector_engine


def test_seed_batch_matches_scalar_on_fixture_reads(ert_index, read_codes,
                                                    params):
    _assert_batch_matches_scalar(ert_index, read_codes, params)


def _fuzz_reads(reference, rng, count):
    """Adversarial read set: reference slices with errors, pure random
    sequence, homopolymers, and lengths straddling k / min_seed_len."""
    n = len(reference)
    out = []
    for i in range(count):
        kind = i % 5
        if kind == 0:  # clean reference slice
            length = int(rng.integers(20, 90))
            start = int(rng.integers(0, n - length))
            read = reference.codes[start:start + length].copy()
        elif kind == 1:  # error-heavy slice (forces early LEP splits)
            length = int(rng.integers(20, 90))
            start = int(rng.integers(0, n - length))
            read = reference.codes[start:start + length].copy()
            for _ in range(int(rng.integers(1, 6))):
                read[int(rng.integers(0, length))] = int(rng.integers(0, 4))
        elif kind == 2:  # pure random (mostly dead-end walks)
            read = rng.integers(0, 4, size=int(rng.integers(1, 60)))
        elif kind == 3:  # homopolymer (deep-repeat LAST scans)
            read = np.full(int(rng.integers(5, 70)),
                           int(rng.integers(0, 4)))
        else:  # short reads around the k / min_seed_len boundaries
            read = rng.integers(0, 4, size=int(rng.integers(1, 14)))
        out.append(np.asarray(read, dtype=np.uint8))
    return out


def test_seed_batch_matches_scalar_on_fuzzed_reads(ert_index, reference,
                                                   params):
    rng = np.random.default_rng(2024)
    reads = _fuzz_reads(reference, rng, 60)
    _assert_batch_matches_scalar(ert_index, reads, params)


def test_seed_batch_matches_scalar_under_tight_hit_cap(ert_index, reference,
                                                       params):
    """A small gather limit exercises the truncated-hit-list branch in
    both the cache-preseed and walk-fallback paths."""
    from repro.seeding import SeedingParams

    rng = np.random.default_rng(7)
    reads = _fuzz_reads(reference, rng, 30)
    tight = SeedingParams(min_seed_len=params.min_seed_len,
                          max_hits_per_seed=2)
    scalar_engine = ErtSeedingEngine(ert_index, gather_limit=2)
    vector_engine = ErtSeedingEngine(ert_index, gather_limit=2)
    scalar = [seed_read(scalar_engine, r, tight) for r in reads]
    vector = seed_batch(vector_engine, reads, tight)
    for a, b in zip(scalar, vector):
        assert _seed_key(a) == _seed_key(b)
    assert scalar_engine.stats.truncated_hit_lists \
        == vector_engine.stats.truncated_hit_lists
    assert vector_engine.stats.truncated_hit_lists > 0


@pytest.fixture(scope="module", params=[
    (merging, shape) for merging in (False, True)
    for shape in ((6, 256, 4), (5, 16, 2), (7, 8, 3))],
    ids=lambda p: f"{'pm' if p[0] else 'plain'}-k{p[1][0]}t{p[1][1]}x{p[1][2]}")
def index_shape(request, reference):
    """One index per (prefix merging, (k, table_threshold, table_x)):
    no jump tables at all, a jump table behind most k-mers, deep trees;
    built, and the same index re-attached read-only from its buffer
    (what a pool worker walks)."""
    from repro.core import ErtConfig, build_ert
    from repro.core.io import index_from_buffer, index_to_buffer

    merging, (k, threshold, x) = request.param
    built = build_ert(reference, ErtConfig(
        k=k, max_seed_len=120, table_threshold=threshold, table_x=x,
        prefix_merging=merging))
    return built, index_from_buffer(index_to_buffer(built))


@pytest.mark.parametrize("max_mem_intv", [1, 2, 20])
@pytest.mark.parametrize("min_seed_len", ["k", 12, 19])
def test_seed_batch_differential(index_shape, reference, min_seed_len,
                                 max_mem_intv):
    """The arena engine against the ``TreeCursor`` oracle across index
    shapes (with and without prefix merging), seed-length floors (``k``
    puts every MEM that stays inside the index table or a jump-table
    window on the exact-walk ``locate`` path), LAST selectivity bounds
    and hit caps, over a built and a read-only attached index."""
    from repro.seeding import SeedingParams

    built, attached = index_shape
    if min_seed_len == "k":
        min_seed_len = built.config.k
    reads = _fuzz_reads(reference, np.random.default_rng(
        100 * min_seed_len + max_mem_intv), 45)
    for caps in ({}, {"max_hits_per_seed": 2}):
        params = SeedingParams(min_seed_len=min_seed_len,
                               max_mem_intv=max_mem_intv, **caps)
        _scalar, vector = _assert_batch_matches_scalar(
            built, reads, params, index_shape,
            gather_limit=2 if caps else 500)
        if caps:
            assert vector.stats.truncated_hit_lists > 0


def test_arena_engine_search_counters_match_scalar(ert_index, reference,
                                                   read_codes, params):
    """Without prefix merging the arena engine runs the scalar engine's
    searches one for one -- same pivots, same pruned backward sweeps,
    same index-table lookups -- so its search counters are the
    oracle's, not an unpruned superset."""
    reads = read_codes + _fuzz_reads(reference, np.random.default_rng(8),
                                     40)
    scalar, vector = _assert_batch_matches_scalar(ert_index, reads, params)
    assert scalar.stats.pruned_backward_searches > 0
    for name in ("forward_searches", "backward_searches",
                 "pruned_backward_searches", "truncated_hit_lists",
                 "index_lookups"):
        assert (getattr(vector.stats, name)
                == getattr(scalar.stats, name)), name


def test_arena_engine_count_matches_scalar(ert_index, read_codes):
    """``count`` inside the index table (<= k characters), through a
    tree, and of a segment that does not occur."""
    from repro.kernels.seeding import ArenaSeedingEngine

    host = ErtSeedingEngine(ert_index)
    host.begin_batch(read_codes)
    arena = ArenaSeedingEngine(host)
    absent = 0
    for read in read_codes[:6]:
        for start, end in ((0, 3), (0, 6), (2, 20), (10, 70), (0, 80)):
            want = host.count(read, start, end)
            assert arena.count(read, start, end) == want
            absent += want == 0
    assert absent  # reads carry errors: some segments occur nowhere


@pytest.fixture(scope="module")
def repeat_rich():
    """A reference of tandem repeats, homopolymer blocks and diverged
    copies of one unit, so root k-mers carry tens of hits and counts
    fall below ``max_mem_intv`` only deep inside a walk."""
    from repro.core import ErtConfig, build_ert
    from repro.sequence.reference import Reference

    rng = np.random.default_rng(5)
    unit = rng.integers(0, 4, size=37)
    parts = []
    for copy in range(30):  # diverged copies: DIVERGE count drops
        mutated = unit.copy()
        for _ in range(copy % 4):
            mutated[int(rng.integers(0, unit.size))] = int(rng.integers(0, 4))
        parts.append(mutated)
        parts.append(rng.integers(0, 4, size=int(rng.integers(3, 25))))
    parts.append(np.tile(rng.integers(0, 4, size=5), 40))  # tandem repeat
    parts.append(np.full(90, 2))  # homopolymer block
    parts.append(rng.integers(0, 4, size=300))  # unique tail
    parts.append(np.tile(unit, 4))  # exact tandem copies of the unit
    reference = Reference("repeats", np.concatenate(parts).astype(np.uint8))
    config = ErtConfig(k=6, max_seed_len=120, table_threshold=32, table_x=3)
    return reference, build_ert(reference, config)


@pytest.mark.parametrize("min_seed_len", [6, 19])  # k, and the default
@pytest.mark.parametrize("max_mem_intv", [1, 2, 20])
def test_last_chain_matches_scalar_on_repeat_rich_reference(
        repeat_rich, max_mem_intv, min_seed_len):
    """Round 3 alone against the scalar cursor where it is hardest:
    launches whose k-mer count starts at or above ``max_mem_intv``, emits
    past ``min_len`` on a DIVERGE count drop and at exactly ``min_len``
    mid-run, reads that end inside a run, one substitution at every
    offset of a read."""
    from repro.seeding import SeedingParams
    from repro.sequence.alphabet import revcomp_codes

    reference, index = repeat_rich
    codes = reference.codes
    n = codes.size
    rng = np.random.default_rng(17)
    reads = []
    for _ in range(40):  # slices ending wherever they end, mid-run too
        length = int(rng.integers(min_seed_len, 95))
        start = int(rng.integers(0, n - length))
        reads.append(codes[start:start + length].copy())
    # Matches the last 45 characters of the double-strand text, then
    # runs off its end inside a LEAF comparison.
    reads.append(np.concatenate(
        [revcomp_codes(codes[:45]), rng.integers(0, 4, size=20)]
    ).astype(np.uint8))
    reads.append(np.full(50, 2, dtype=np.uint8))  # inside the homopolymer
    probe = codes[40:40 + 64].copy()
    for offset in range(probe.size):
        mutated = probe.copy()
        mutated[offset] = (mutated[offset] + 1) % 4
        reads.append(mutated)
    params = SeedingParams(min_seed_len=min_seed_len,
                           max_mem_intv=max_mem_intv)
    scalar_engine = ErtSeedingEngine(index)
    vector_engine = ErtSeedingEngine(index)
    scalar = [seed_read(scalar_engine, r, params) for r in reads]
    vector = seed_batch(vector_engine, reads, params)
    for i, (a, b) in enumerate(zip(scalar, vector)):
        assert (_seed_key(a, a.last_seeds)
                == _seed_key(b, b.last_seeds)), f"read {i} LAST diverged"
        assert _seed_key(a) == _seed_key(b), f"read {i} diverged"
    # The fixture does what it says (or the comparison above is hollow).
    assert int(index.kmer_count.max()) >= 20
    lengths = [s.length for r in vector for s in r.last_seeds]
    if max_mem_intv == 1:
        assert not lengths  # count < 1 never holds
    else:
        assert min_seed_len in lengths
        assert max(lengths) > min_seed_len


def _seed_in_batches(index, reads, params, size):
    """Seeds and the per-read work columns, seeding ``size`` reads at a
    time over one engine."""
    engine = ErtSeedingEngine(index)
    keys, columns = [], []
    for lo in range(0, len(reads), size):
        batch = reads[lo:lo + size]
        stats = KernelBatchStats(len(batch))
        keys.extend(_seed_key(r)
                    for r in seed_batch(engine, batch, params, stats=stats))
        columns.extend(zip(stats.walk_steps.tolist(),
                           stats.last_launches.tolist(),
                           stats.gather_bytes.tolist()))
    return keys, columns


def test_seed_batch_is_batch_composition_independent(ert_index, reference,
                                                     read_codes, params):
    """A read's seeds *and* its work counters do not depend on which
    reads share its batch: one batch, batches of 7, one by one."""
    reads = read_codes + _fuzz_reads(reference, np.random.default_rng(3), 30)
    whole = _seed_in_batches(ert_index, reads, params, len(reads))
    assert any(launches for _steps, launches, _bytes in whole[1])
    assert _seed_in_batches(ert_index, reads, params, 7) == whole
    assert _seed_in_batches(ert_index, reads, params, 1) == whole


def test_arena_cursor_over_attached_index_matches_built(ert_index, reference,
                                                        read_codes, params):
    """The scalar cursor reads the read-only columns of an index
    attached from ``index_to_buffer`` (what a pool worker walks) exactly
    as it reads the arena compiled from a built one."""
    from repro.core.io import index_from_buffer, index_to_buffer
    from repro.kernels.walk import arena_cursor

    attached = index_from_buffer(index_to_buffer(ert_index))
    cursor = arena_cursor(attached)
    assert cursor.kind.readonly and cursor.children.readonly
    assert arena_cursor(attached) is cursor  # built once per index
    built = arena_cursor(ert_index)
    assert cursor.text == built.text and cursor.chars == built.chars
    assert cursor.children.tolist() == built.children.tolist()
    reads = read_codes + _fuzz_reads(reference, np.random.default_rng(4), 30)
    assert (_seed_in_batches(attached, reads, params, 16)
            == _seed_in_batches(ert_index, reads, params, 16))


def test_vector_ready_gates(ert_index, ert, fmd):
    engine = ErtSeedingEngine(ert_index)
    assert vector_decline_reason(engine) is None
    # Telemetry is deliberately NOT a decline reason any more: the
    # vector path runs fully observed through batch-flushed
    # accumulators, so the old telemetry.enabled() escape hatch is gone.
    telemetry.reset()
    telemetry.enable()
    try:
        assert vector_decline_reason(engine) is None
    finally:
        telemetry.disable()
        telemetry.reset()
    # The remaining gates (per-access instrumentation that needs the
    # scalar cursor) still decline, each with its fallback-counter label.
    tracer = MemoryTracer()
    ert_index.attach_tracer(tracer)
    try:
        assert vector_decline_reason(engine) == "tracer"
    finally:
        ert_index.attach_tracer(None)
    assert vector_decline_reason(engine) is None
    assert vector_decline_reason(fmd) == "engine"


def test_seed_batch_falls_back_when_ineligible(ert_index, read_codes,
                                               params):
    """An ineligible engine (memsim tracer attached) silently takes the
    per-read scalar loop and counts the decline; the batch entry point
    still returns the scalar results."""
    engine = ErtSeedingEngine(ert_index)
    oracle = [seed_read(ErtSeedingEngine(ert_index), r, params)
              for r in read_codes]
    tracer = MemoryTracer()
    ert_index.attach_tracer(tracer)
    telemetry.reset()
    telemetry.enable()
    try:
        results = seed_batch(engine, read_codes, params)
        counters = telemetry.snapshot()["counters"]
    finally:
        ert_index.attach_tracer(None)
        telemetry.disable()
        telemetry.reset()
    for a, b in zip(oracle, results):
        assert _seed_key(a) == _seed_key(b)
    assert counters["kernels.fallback_scalar.tracer"] == 1
    assert "kernels.batches" not in counters


def test_seed_batch_runs_vector_with_telemetry_live(ert_index, read_codes,
                                                    params):
    """With telemetry live the batch entry point takes the *vector*
    path (one kernels.batch flush), and the results still match the
    scalar oracle -- the byte-identity contract holds observed."""
    engine = ErtSeedingEngine(ert_index)
    oracle = [seed_read(ErtSeedingEngine(ert_index), r, params)
              for r in read_codes]
    telemetry.reset()
    telemetry.enable()
    try:
        results = seed_batch(engine, read_codes, params)
        counters = telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    for a, b in zip(oracle, results):
        assert _seed_key(a) == _seed_key(b)
    assert counters["kernels.batches"] == 1
    assert counters["kernels.reads"] == len(read_codes)
    assert counters["kernels.walk_steps"] > 0
    assert counters["seeding.reads"] == len(read_codes)
    assert "kernels.fallback_scalar.tracer" not in counters


def test_resolve_kernels(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    assert resolve_kernels() == "scalar"
    assert resolve_kernels("vector") == "vector"
    monkeypatch.setenv("REPRO_KERNELS", "vector")
    assert resolve_kernels() == "vector"
    assert resolve_kernels("scalar") == "scalar"
    monkeypatch.setenv("REPRO_KERNELS", "simd")
    with pytest.raises(ValueError):
        resolve_kernels()


# ----------------------------------------------------------------------
# End-to-end byte identity through the scheduler
# ----------------------------------------------------------------------


def test_seed_tsv_identical_vector_three_workers(ert_index, reads, params):
    base_lines, base_stats = seed_reads(
        ert_index, reads, params, config=ParallelConfig(workers=1))
    for config in (ParallelConfig(workers=1, kernels="vector"),
                   ParallelConfig(workers=3, batch_size=7,
                                  kernels="vector")):
        lines, stats = seed_reads(ert_index, reads, params, config=config)
        assert lines == base_lines
        assert stats.truncated_hit_lists == base_stats.truncated_hit_lists


def test_align_sam_identical_vector_three_workers(ert_index, reads, params):
    base, _ = align_reads(ert_index, reads, params,
                          config=ParallelConfig(workers=1))
    vec, _ = align_reads(ert_index, reads, params,
                         config=ParallelConfig(workers=3, batch_size=7,
                                               kernels="vector"))
    assert vec == base


def test_align_pairs_identical_vector_three_workers(ert_index, reads,
                                                    params):
    paired = reads[:len(reads) - len(reads) % 2]
    base, _ = align_pairs(ert_index, paired, params,
                          config=ParallelConfig(workers=1))
    vec, _ = align_pairs(ert_index, paired, params,
                         config=ParallelConfig(workers=3, batch_size=4,
                                               kernels="vector"))
    assert vec == base


# ----------------------------------------------------------------------
# Observed-vector equivalence: identity and counters with telemetry on
# ----------------------------------------------------------------------


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_observed_vector_seed_identity_any_start_method(
        ert_index, reads, params, start_method):
    """Seeds stay byte-identical to scalar when the vector run is fully
    observed (metrics + exemplars) at three workers, under both start
    methods, and every captured exemplar carries the vector tag."""
    base_lines, _ = seed_reads(ert_index, reads, params,
                               config=ParallelConfig(workers=1))
    telemetry.reset()
    telemetry.enable()
    try:
        lines, _ = seed_reads(
            ert_index, reads, params,
            config=ParallelConfig(workers=3, batch_size=7,
                                  kernels="vector",
                                  start_method=start_method))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert lines == base_lines
    exemplars = snap["exemplars"]
    assert exemplars["count"] == len(reads)
    assert exemplars["slowest"], "slowlog empty under vector kernels"
    for rec in exemplars["reservoir"] + exemplars["slowest"]:
        assert rec.get("kernels") == "vector"
        assert rec["wall_ms"] >= 0.0
    assert snap["counters"]["kernels.reads"] == len(reads)
    assert snap["counters"]["kernels.walk_steps"] > 0
    assert snap["histograms"]["read.wall_ms"]["count"] == len(reads)


def test_observed_vector_align_identity_three_workers(ert_index, reads,
                                                      params):
    base, _ = align_reads(ert_index, reads, params,
                          config=ParallelConfig(workers=1))
    telemetry.reset()
    telemetry.enable()
    try:
        vec, _ = align_reads(ert_index, reads, params,
                             config=ParallelConfig(workers=3, batch_size=7,
                                                   kernels="vector"))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert vec == base
    exemplars = snap["exemplars"]
    assert exemplars["count"] == len(reads)
    assert all(rec.get("kernels") == "vector"
               for rec in exemplars["reservoir"])
    # Align exemplars fold the seed-stage counters in alongside the
    # alignment counters.
    assert any("kernels.walk_steps" in rec["counters"]
               for rec in exemplars["reservoir"])
    assert any("sw_cells" in rec["counters"]
               for rec in exemplars["reservoir"])


def test_observed_vector_pairs_identity_three_workers(ert_index, reads,
                                                      params):
    paired = reads[:len(reads) - len(reads) % 2]
    base, _ = align_pairs(ert_index, paired, params,
                          config=ParallelConfig(workers=1))
    telemetry.reset()
    telemetry.enable()
    try:
        vec, _ = align_pairs(ert_index, paired, params,
                             config=ParallelConfig(workers=3, batch_size=4,
                                                   kernels="vector"))
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert vec == base
    exemplars = snap["exemplars"]
    assert exemplars["count"] == len(paired) // 2
    assert all(rec.get("kernels") == "vector"
               for rec in exemplars["reservoir"])


def test_vector_counter_totals_match_exemplar_columns(ert_index, reference,
                                                      params):
    """Registry totals equal the sum of the per-read exemplar counters.

    ``PER_READ_COUNTERS`` makes this hold by construction -- the flush
    sums the same arrays the exemplar rows are sliced from -- and this
    test pins it on a fuzzed corpus small enough (48 < the reservoir's
    64) that every read's exemplar is retained.  Zero-valued counters
    are stripped from exemplar records, hence the ``.get(..., 0)``.
    """
    from repro.kernels.stats import PER_READ_COUNTERS
    from repro.sequence.simulate import Read

    def seed_observed(engine, batch_reads):
        """One vector seed batch through the scheduler's in-process
        runner (what `ert-repro explain` drives)."""
        list(map_batches(("local", engine), "seed",
                         {"params": params, "kernels": "vector"},
                         [pack_batch(batch_reads)],
                         ParallelConfig(workers=1)))

    rng = np.random.default_rng(99)
    fuzz = [Read(name=f"f{i}", codes=codes)
            for i, codes in enumerate(_fuzz_reads(reference, rng, 48))]
    names = [read.name for read in fuzz]
    engine = ErtSeedingEngine(ert_index)
    telemetry.reset()
    telemetry.enable()
    try:
        seed_observed(engine, fuzz)
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    recs = {rec["read_id"]: rec
            for rec in snap["exemplars"]["reservoir"]}
    assert len(recs) == len(fuzz)
    for name, _ in PER_READ_COUNTERS:
        total = sum(rec["counters"].get(name, 0) for rec in recs.values())
        assert snap["counters"].get(name, 0) == total, name
    assert snap["counters"]["kernels.walk_steps"] > 0

    # Batch-composition invariance: replaying a read alone (B=1, what
    # `ert-repro explain` does) reproduces its counter column exactly.
    for i in (0, 7, 23, 41):
        single = ErtSeedingEngine(ert_index)
        telemetry.reset()
        telemetry.enable()
        try:
            seed_observed(single, [fuzz[i]])
            alone = telemetry.snapshot()["exemplars"]["reservoir"][0]
        finally:
            telemetry.disable()
            telemetry.reset()
        kernel_cols = {name for name, _ in PER_READ_COUNTERS}
        want = {k: v for k, v in recs[names[i]]["counters"].items()
                if k in kernel_cols}
        got = {k: v for k, v in alone["counters"].items()
               if k in kernel_cols}
        assert got == want, names[i]


# ----------------------------------------------------------------------
# Wavefront Smith-Waterman vs the scalar kernel
# ----------------------------------------------------------------------


def _assert_sw_batch_matches(query, targets, scheme, band):
    workspace = SwWorkspace()
    batched = batched_banded_sw(query, targets, scheme, band,
                                workspace=workspace)
    for target, got in zip(targets, batched):
        want = banded_smith_waterman(query, target, scheme, band)
        assert (got.score, got.query_end, got.target_end, got.cells) \
            == (want.score, want.query_end, want.target_end, want.cells)


def test_batched_sw_fuzzed_geometries():
    rng = np.random.default_rng(5150)
    for band in (1, 3, 8, 41):
        for m in (1, 7, 40):
            query = rng.integers(0, 4, size=m)
            targets = [
                rng.integers(0, 4, size=1),
                rng.integers(0, 4, size=max(1, m // 2)),
                rng.integers(0, 4, size=m),
                rng.integers(0, 4, size=m + band),  # band falls off end
                query.copy(),                       # perfect diagonal
            ]
            _assert_sw_batch_matches(query, targets, DEFAULT_SCHEME, band)


def test_batched_sw_tie_breaking_on_homopolymers():
    """All-A query vs all-A targets: every diagonal cell ties at the
    maximum, so any tie-break drift from the scalar first-occurrence
    rule shows up immediately."""
    query = np.zeros(12, dtype=np.uint8)
    targets = [np.zeros(n, dtype=np.uint8) for n in (3, 12, 20, 40)]
    _assert_sw_batch_matches(query, targets, DEFAULT_SCHEME, 5)


def test_batched_sw_negative_scheme_and_mismatch_only():
    scheme = ScoringScheme(match=2, mismatch=-3, gap_open=-5,
                           gap_extend=-1)
    rng = np.random.default_rng(77)
    query = rng.integers(0, 4, size=25)
    mismatch_only = (query[::-1] + 1) % 4  # no exact run anywhere
    targets = [mismatch_only, rng.integers(0, 4, size=30)]
    _assert_sw_batch_matches(query, targets, scheme, 9)


def test_batched_sw_empty_batch_and_reused_workspace():
    assert batched_banded_sw(np.zeros(5, dtype=np.uint8), []) == []
    # A shared workspace across differently-shaped batches must not
    # leak state between calls.
    workspace = SwWorkspace()
    rng = np.random.default_rng(13)
    query = rng.integers(0, 4, size=18)
    for _ in range(3):
        targets = [rng.integers(0, 4, size=int(rng.integers(1, 30)))
                   for _ in range(4)]
        batched = batched_banded_sw(query, targets, DEFAULT_SCHEME, 7,
                                    workspace=workspace)
        for target, got in zip(targets, batched):
            want = banded_smith_waterman(query, target, DEFAULT_SCHEME, 7)
            assert (got.score, got.query_end, got.target_end) \
                == (want.score, want.query_end, want.target_end)


def test_batched_sw_rejects_bad_band():
    with pytest.raises(ValueError):
        batched_banded_sw(np.zeros(4, dtype=np.uint8),
                          [np.zeros(4, dtype=np.uint8)], band=0)


def test_batched_sw_equal_score_tie_positions():
    """Periodic sequences make the maximum recur at the same score --
    same end row, different end columns (and vice versa).  The scalar
    rule is strict-improvement row-major first occurrence; the batched
    cross-diagonal replacement must land on the same cell."""
    rng = np.random.default_rng(4096)
    period4 = np.tile(np.array([0, 1, 2, 3], dtype=np.uint8), 10)
    for band in (3, 9, 41):
        for m in (4, 8, 16):
            queries = [period4[:m], np.zeros(m, dtype=np.uint8)]
            targets = [period4[:4 * m], np.zeros(30, dtype=np.uint8),
                       np.tile(period4[:m], 3),
                       rng.integers(0, 4, size=2 * m + band)]
            for query in queries:
                _assert_sw_batch_matches(query, targets, DEFAULT_SCHEME,
                                         band)


# ----------------------------------------------------------------------
# Batched row-scan traceback vs the scalar kernel
# ----------------------------------------------------------------------


def _assert_tb_batch_matches(query, targets, scheme, band, workspace=None):
    # ``query`` is one shared 1-D query or a (B, m) block; every lane
    # count takes the row scan.
    # TracedAlignment equality covers score, all four coordinates, and
    # the CIGAR tuple; the string is checked on top because it is what
    # reaches the SAM records.
    batched = batched_sw_traceback(query, targets, scheme, band,
                                   workspace=workspace)
    queries = np.broadcast_to(query, (len(targets), np.shape(query)[-1]))
    for lane_query, target, got in zip(queries, targets, batched):
        want = banded_sw_traceback(lane_query, target, scheme, band)
        assert got == want
        assert got.cigar_string() == want.cigar_string()


def test_batched_traceback_fuzzed_geometries():
    rng = np.random.default_rng(31337)
    for band in (1, 3, 8, 41):
        for m in (1, 7, 40, 101):
            query = rng.integers(0, 4, size=m).astype(np.uint8)
            planted = np.concatenate([
                rng.integers(0, 4, size=11), query,
                rng.integers(0, 4, size=11)]).astype(np.uint8)
            noisy = planted.copy()
            noisy[rng.integers(0, noisy.size, size=max(1, m // 8))] = \
                rng.integers(0, 4, size=max(1, m // 8))
            targets = [
                rng.integers(0, 4, size=1).astype(np.uint8),
                rng.integers(0, 4, size=max(1, band // 2)),  # n < band
                rng.integers(0, 4, size=max(1, m // 2)),
                rng.integers(0, 4, size=m + band),  # band off the end
                planted,                            # perfect embedded
                noisy,                              # band-edge errors
            ]
            _assert_tb_batch_matches(query, targets, DEFAULT_SCHEME, band)


def test_batched_traceback_gap_heavy_and_unaligned():
    """Indel-riddled targets (gap states dominate the walk-back) plus
    all-mismatch lanes (the cached unaligned shape) in one batch."""
    rng = np.random.default_rng(2718)
    scheme = ScoringScheme(match=2, mismatch=-3, gap_open=-5,
                           gap_extend=-2)
    base = rng.integers(0, 4, size=60).astype(np.uint8)
    with_del = np.concatenate([base[:20], base[32:]])  # 12-base deletion
    with_ins = np.concatenate([base[:30],
                               rng.integers(0, 4, size=9), base[30:]])
    choppy = np.concatenate(
        [base[:10], base[14:30], rng.integers(0, 4, size=4), base[30:50]])
    all_mismatch = ((base + 1) % 4).astype(np.uint8)[::-1].copy()
    targets = [with_del, with_ins, choppy, all_mismatch.astype(np.uint8)]
    for band in (9, 31, 41):
        for sch in (DEFAULT_SCHEME, scheme):
            _assert_tb_batch_matches(base, targets, sch, band)
    # A deletion as wide as the band, under gaps cheap enough to take
    # it: one row's F run crosses all 41 columns (the scan's last
    # doubling step), from the band's left edge to its right.
    cheap = ScoringScheme(match=2, mismatch=-4, gap_open=-1, gap_extend=-1)
    read = rng.integers(0, 3, size=101).astype(np.uint8)
    crossing = np.concatenate([read[20:50], np.full(40, 3),
                               read[50:]]).astype(np.uint8)
    _assert_tb_batch_matches(read, [crossing, read], cheap, 41)
    assert ("D", 40) in banded_sw_traceback(read, crossing, cheap, 41).cigar


def test_batched_traceback_homopolymer_ties():
    """All-A vs all-A: every cell of every diagonal ties, so the
    post-sweep argmax tie-break and the walk-back pointer priorities
    are both pinned against the scalar oracle."""
    query = np.zeros(12, dtype=np.uint8)
    targets = [np.zeros(n, dtype=np.uint8) for n in (3, 12, 20, 40)]
    for band in (1, 5, 41):
        _assert_tb_batch_matches(query, targets, DEFAULT_SCHEME, band)


def test_batched_traceback_empty_inputs_and_fallback():
    empty_q = np.array([], dtype=np.uint8)
    targets = [np.zeros(6, dtype=np.uint8), np.array([], dtype=np.uint8)]
    assert batched_sw_traceback(empty_q, []) == []
    # Empty query / all-empty targets take the scalar dispatch and must
    # still match the oracle shape-for-shape.
    for q in (empty_q, np.zeros(4, dtype=np.uint8)):
        got = batched_sw_traceback(q, targets)
        want = [banded_sw_traceback(q, t) for t in targets]
        assert got == want


def test_batched_traceback_reused_workspace():
    """One workspace across sweeps whose lane count, query length,
    widest target, band and plane dtype all shrink and grow: the carved
    planes must never leak a stale cell, and a block that served an
    int16 sweep must be regrown for an int32 one, not reinterpreted."""
    workspace = SwWorkspace()
    rng = np.random.default_rng(55)
    wide = ScoringScheme(match=200, mismatch=-300, gap_open=-500,
                         gap_extend=-100)
    dtypes = []
    for band, scheme, B, m in ((41, DEFAULT_SCHEME, 6, 88),
                               (3, DEFAULT_SCHEME, 2, 9),
                               (17, wide, 9, 101),
                               (41, DEFAULT_SCHEME, 3, 30),
                               (8, wide, 1, 101),
                               (41, DEFAULT_SCHEME, 12, 101)):
        dtypes.append(_plane_dtype(m, 2 * (band // 2) + 2, scheme))
        queries = rng.integers(0, 4, size=(B, m)).astype(np.uint8)
        targets = [rng.integers(0, 4, size=int(rng.integers(1, 150)))
                   .astype(np.uint8) for _ in range(B)]
        targets[0] = np.concatenate(
            [targets[0][:3], queries[0]]).astype(np.uint8)
        _assert_tb_batch_matches(queries, targets, scheme, band,
                                 workspace=workspace)
    assert dtypes == [np.int16, np.int16, np.int32, np.int16, np.int32,
                      np.int16]
    small = workspace.grid(1, 8, 8, dtype=np.int16)
    grown = workspace.grid(1, 8, 8, dtype=np.int32)
    assert grown.dtype == np.int32 and grown.shape == (1, 8, 8)
    assert not np.shares_memory(small, grown)
    assert workspace.grid(2, 3, 4).dtype == np.int64


def test_batched_traceback_per_lane_queries_fuzzed():
    """A ``(B, m)`` query block -- every lane its own read, windows of
    unequal length in one sweep -- against one scalar call per lane, at
    lane counts on either side of the sweep cap (cap - 1, cap, cap + 1,
    2 cap + 2: one sweep, one full sweep, two and three evenly split
    ones)."""
    cap = MAX_WAVEFRONT_LANES
    rng = np.random.default_rng(6465)
    workspace = SwWorkspace()
    m, band = 24, 9
    for B, sweeps in ((1, 1), (2, 1), (5, 1), (cap - 1, 1), (cap, 1),
                      (cap + 1, 2), (2 * cap + 2, 3)):
        queries = rng.integers(0, 4, size=(B, m)).astype(np.uint8)
        targets = []
        for b in range(B):
            kind = b % 4
            if kind == 0:    # the lane's own query, planted with noise
                target = np.concatenate(
                    [rng.integers(0, 4, size=int(rng.integers(0, 6))),
                     queries[b], rng.integers(0, 4, size=3)])
                target[int(rng.integers(0, target.size))] = \
                    int(rng.integers(0, 4))
            elif kind == 1:  # the query with a deletion
                target = np.concatenate([queries[b][:9], queries[b][12:]])
            elif kind == 2:  # a *neighbouring* lane's query
                target = queries[(b + 1) % B].copy()
            else:            # random, any length down to one base
                target = rng.integers(
                    0, 4, size=int(rng.integers(1, m + band)))
            targets.append(target.astype(np.uint8))
        telemetry.reset()
        telemetry.enable()
        try:
            got = batched_sw_traceback(queries, targets, DEFAULT_SCHEME,
                                       band, workspace=workspace)
            fill = telemetry.snapshot()["histograms"][
                "kernels.wavefront_fill"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert fill["count"] == sweeps, B
        want = [banded_sw_traceback(queries[b], targets[b],
                                    DEFAULT_SCHEME, band)
                for b in range(B)]
        assert got == want, B
    # Under the default floor too.
    assert batched_sw_traceback(queries[:2], targets[:2],
                                DEFAULT_SCHEME, band) == want[:2]
    with pytest.raises(ValueError):
        batched_sw_traceback(queries[:3], targets[:2])


def _edited_copy(query, rng, edits):
    """``query`` with ``edits`` planted substitutions / insertions /
    deletions / homopolymer runs (possibly empty afterwards)."""
    bases = [int(x) for x in query]
    for _ in range(edits):
        kind = int(rng.integers(0, 4))
        at = int(rng.integers(0, len(bases) + 1))
        run = int(rng.integers(1, 9))
        if kind == 0 and bases:
            bases[min(at, len(bases) - 1)] = int(rng.integers(0, 4))
        elif kind == 1:
            bases[at:at] = [int(x) for x in rng.integers(0, 4, size=run)]
        elif kind == 2:
            del bases[at:at + run]
        else:
            bases[at:at] = [bases[at - 1] if at else 0] * run
    return bases


@settings(max_examples=150, deadline=None)
@given(match=st.integers(1, 5), mismatch=st.integers(-6, -1),
       gap_extend=st.integers(-4, -1), open_minus_extend=st.integers(-6, 0),
       band=st.integers(1, 45), m=st.integers(1, 120),
       lanes=st.integers(1, 7), period=st.sampled_from((0, 1, 2, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_traceback_matches_scalar_property(
        match, mismatch, gap_extend, open_minus_extend, band, m, lanes,
        period, seed):
    """Row scan == one scalar call per lane, over every scheme with
    ``gap_open <= gap_extend`` (``==`` is the edge of the scan's
    exactness argument), odd and even bands, per-lane query blocks of
    random / homopolymer / period-2 / period-4 sequence, and targets of
    length 1 .. m + band + 5 cut from the edited query."""
    scheme = ScoringScheme(match, mismatch, gap_extend + open_minus_extend,
                           gap_extend)
    rng = np.random.default_rng(seed)
    if period:
        queries = np.stack([np.resize(rng.integers(0, 4, size=period), m)
                            for _ in range(lanes)])
    else:
        queries = rng.integers(0, 4, size=(lanes, m))
    queries = queries.astype(np.uint8)
    targets = []
    for b in range(lanes):
        lead = [int(x) for x in
                rng.integers(0, 4, size=int(rng.integers(0, band + 3)))]
        bases = (lead + _edited_copy(queries[b], rng,
                                     int(rng.integers(0, 5)))
                 )[:int(rng.integers(1, m + band + 6))]
        targets.append(np.array(bases or [0], dtype=np.uint8))
    _assert_tb_batch_matches(queries, targets, scheme, band)


def test_batched_traceback_int32_planes():
    """A scheme whose scores outgrow int16 (m * match >= 2^14) sweeps in
    int32 and still equals the scalar kernel lane for lane."""
    wide = ScoringScheme(match=200, mismatch=-300, gap_open=-500,
                         gap_extend=-100)
    m, band = 101, 41
    assert _plane_dtype(m, band + 1, DEFAULT_SCHEME) is np.int16
    assert _plane_dtype(m, band + 1, wide) is np.int32
    rng = np.random.default_rng(1 << 14)
    queries = rng.integers(0, 4, size=(8, m)).astype(np.uint8)
    targets = [np.array(
        [int(x) for x in rng.integers(0, 4, size=b)]
        + _edited_copy(queries[b], rng, b % 4), dtype=np.uint8)
        for b in range(8)]
    _assert_tb_batch_matches(queries, targets, wide, band)


def test_batched_traceback_scheme_outside_the_scan():
    """``gap_open > gap_extend`` breaks the prefix-max form of F: the
    batch goes to the scalar kernel, says so, and matches the oracle."""
    steep = ScoringScheme(match=1, mismatch=-1, gap_open=-1,
                          gap_extend=-3)
    rng = np.random.default_rng(13)
    queries = rng.integers(0, 4, size=(5, 40)).astype(np.uint8)
    targets = [np.array(_edited_copy(q, rng, 3), dtype=np.uint8)
               for q in queries]
    telemetry.reset()
    telemetry.enable()
    try:
        _assert_tb_batch_matches(queries, targets, steep, 21)
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert snap["counters"]["kernels.fallback_scalar.scheme"] == 1
    assert "kernels.wavefront_fill" not in snap["histograms"]


def test_batched_traceback_rejects_bad_band():
    with pytest.raises(ValueError):
        batched_sw_traceback(np.zeros(4, dtype=np.uint8),
                             [np.zeros(4, dtype=np.uint8)], band=0)


def test_read_aligner_tb_batch_matches_scalar(ert_index, reads, params):
    """align_sam / align_sam_multi with the batched traceback injected
    must emit the scalar records byte for byte."""
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params)
    batched = ReadAligner(reference, ErtSeedingEngine(ert_index),
                          params=params, tb_batch=batched_sw_traceback)
    for read in reads:
        assert batched.align_sam(read.codes, read.name, read.quality) \
            == scalar.align_sam(read.codes, read.name, read.quality)
        assert batched.align_sam_multi(read.codes, read.name,
                                       read.quality) \
            == scalar.align_sam_multi(read.codes, read.name, read.quality)


def test_paired_aligner_tb_batch_matches_scalar(ert_index, reads, params):
    reference = ert_index.reference
    scalar = PairedAligner(ReadAligner(
        reference, ErtSeedingEngine(ert_index), params=params))
    batched = PairedAligner(ReadAligner(
        reference, ErtSeedingEngine(ert_index), params=params,
        tb_batch=batched_sw_traceback))
    codes = [r.codes for r in reads[:8]]
    for i in range(0, 8, 2):
        assert batched.align_pair(codes[i], codes[i + 1], f"pair{i}") \
            == scalar.align_pair(codes[i], codes[i + 1], f"pair{i}")


# ----------------------------------------------------------------------
# Pipeline integration: injected seeding + batched extension
# ----------------------------------------------------------------------


def _outcome_key(outcome):
    aln = outcome.alignment
    return (None if aln is None else
            (aln.strand, aln.position, aln.score, aln.chain_score),
            outcome.n_seeds, outcome.n_chains,
            outcome.workload.sw_extensions, outcome.workload.sw_rows_total,
            outcome.workload.edit_checks, outcome.workload.edit_rows_total)


def test_read_aligner_sw_batch_matches_scalar(ert_index, read_codes,
                                              params):
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params)
    batched = ReadAligner(reference, ErtSeedingEngine(ert_index),
                          params=params, sw_batch=batched_banded_sw)
    for read in read_codes:
        assert _outcome_key(batched.align(read)) \
            == _outcome_key(scalar.align(read))


def test_read_aligner_sw_batch_without_edit_shortcut(ert_index, read_codes,
                                                     params):
    """edit_check_first=False forces every chain through the wavefront
    kernel, covering the all-SW batch shape."""
    reference = ert_index.reference
    scalar = ReadAligner(reference, ErtSeedingEngine(ert_index),
                         params=params, edit_check_first=False)
    batched = ReadAligner(reference, ErtSeedingEngine(ert_index),
                          params=params, edit_check_first=False,
                          sw_batch=batched_banded_sw)
    for read in read_codes:
        assert _outcome_key(batched.align(read)) \
            == _outcome_key(scalar.align(read))


def test_align_sam_with_injected_seeding(ert_index, reads, params):
    reference = ert_index.reference
    engine = ErtSeedingEngine(ert_index)
    aligner = ReadAligner(reference, engine, params=params)
    codes = [r.codes for r in reads]
    seeded = seed_batch(engine, codes, params)
    for read, seeding in zip(reads, seeded):
        plain = aligner.align_sam(read.codes, read.name, read.quality)
        injected = aligner.align_sam(read.codes, read.name, read.quality,
                                     seeding=seeding)
        assert injected == plain


def test_align_pair_with_injected_seeding(ert_index, reads, params):
    reference = ert_index.reference
    engine = ErtSeedingEngine(ert_index)
    paired = PairedAligner(ReadAligner(reference, engine, params=params))
    codes = [r.codes for r in reads[:6]]
    seeded = seed_batch(engine, codes, params)
    for i in range(0, 6, 2):
        plain = paired.align_pair(codes[i], codes[i + 1], f"pair{i}")
        injected = paired.align_pair(codes[i], codes[i + 1], f"pair{i}",
                                     seeding1=seeded[i],
                                     seeding2=seeded[i + 1])
        assert injected == plain
