"""End-to-end alignment pipeline tests."""

import numpy as np
import pytest

from repro.extend import Alignment, ReadAligner, SeedExConfig, SeedExModel
from repro.extend.seedex import ExtensionWorkload
from repro.extend.smith_waterman import BAND, DEFAULT_SCHEME
from repro.extend.traceback import banded_sw_traceback
from repro.seeding import SeedingParams
from repro.sequence import GenomeSimulator, ReadSimulator, Strand


@pytest.fixture(scope="module")
def setup():
    from repro.fmindex import FmdIndex, FmdSeedingEngine
    # Mild repeat content so most reads map uniquely.
    sim = GenomeSimulator(seed=91, interspersed_fraction=0.08,
                          segdup_fraction=0.02)
    ref = sim.generate(6000)
    engine = FmdSeedingEngine(FmdIndex(ref))
    aligner = ReadAligner(ref, engine, SeedingParams(min_seed_len=12))
    return ref, aligner


def test_perfect_reads_align_to_origin(setup):
    ref, aligner = setup
    reads = ReadSimulator(ref, read_length=80, error_read_fraction=0.0,
                          seed=92).simulate(30)
    correct = 0
    for read in reads:
        out = aligner.align(read.codes, read.name)
        assert out.alignment is not None
        at_origin = (abs(out.alignment.position - read.origin) <= 2
                     and out.alignment.strand == read.strand)
        # A full-score alignment elsewhere is a genuine multi-map (the
        # read was sampled from a repeat copy), not an aligner error.
        multimap = out.alignment.score == len(read.codes)
        if at_origin or multimap:
            correct += 1
    assert correct >= 26


def test_error_reads_still_align(setup):
    ref, aligner = setup
    reads = ReadSimulator(ref, read_length=80, error_read_fraction=1.0,
                          substitution_rate=0.02, seed=93).simulate(20)
    mapped = 0
    correct = 0
    for read in reads:
        out = aligner.align(read.codes, read.name)
        if out.alignment and out.alignment.is_mapped:
            mapped += 1
            if (abs(out.alignment.position - read.origin) <= 2
                    and out.alignment.strand == read.strand):
                correct += 1
    assert mapped >= 18
    assert correct >= 15


def test_alignment_engines_agree(setup):
    """ERT-backed alignment must equal FMD-backed alignment (the paper's
    end-to-end binary-compatibility claim)."""
    from repro.core import ErtConfig, ErtSeedingEngine, build_ert
    ref, fmd_aligner = setup
    ert_engine = ErtSeedingEngine(build_ert(ref, ErtConfig(
        k=6, max_seed_len=120, table_threshold=32, table_x=3)))
    ert_aligner = ReadAligner(ref, ert_engine, SeedingParams(min_seed_len=12))
    reads = ReadSimulator(ref, read_length=80, seed=94).simulate(15)
    for read in reads:
        a = fmd_aligner.align(read.codes, read.name)
        b = ert_aligner.align(read.codes, read.name)
        assert (a.alignment is None) == (b.alignment is None)
        if a.alignment:
            assert a.alignment == b.alignment
        assert a.n_seeds == b.n_seeds


@pytest.mark.parametrize("substitution", [None, 40, 1])
def test_exact_read_is_one_exact_lane_substituted_read_is_traced(
        setup, substitution):
    """An exact read is one exact lane and runs no SW; with a
    substitution mid-read it is traced, and its placement is the one the
    scalar traceback of its window gives.  A substitution next to the
    read's start is soft-clipped, and the position is still where the
    read's first base falls."""
    ref, aligner = setup
    read = ref.codes[2000:2080].copy()
    if substitution is not None:
        read[substitution] = (read[substitution] + 1) % 4
    out = aligner.align(read)
    assert out.workload.edit_checks == 1
    assert out.workload.edit_rows_total == read.size
    half = BAND // 2
    traced = banded_sw_traceback(
        read, ref.codes[2000 - half:2000 + read.size + half + 1],
        DEFAULT_SCHEME, BAND)
    assert traced.cigar == {None: (("M", 80),),
                            40: (("M", 40), ("X", 1), ("M", 39)),
                            1: (("S", 2), ("M", 78))}[substitution]
    assert out.alignment == Alignment(
        "read", Strand.FORWARD, 2000, traced.score)
    if substitution is None:
        assert out.workload.sw_extensions == 0
    else:
        assert out.workload.sw_extensions == 1
        assert out.workload.sw_rows_total == read.size


@pytest.fixture(scope="module")
def gapped():
    """The benchmark's 10 kbp genome, its aligner, and a 101 bp read
    across 3000..3104 with 3 bp deleted or 3 bp inserted after 50."""
    from repro.fmindex import FmdIndex, FmdSeedingEngine

    ref = GenomeSimulator(seed=2021).generate(10_000)
    aligner = ReadAligner(ref, FmdSeedingEngine(FmdIndex(ref)),
                          SeedingParams(min_seed_len=12))
    codes = ref.codes
    deletion = np.concatenate([codes[3000:3050], codes[3053:3104]])
    insertion = np.concatenate([codes[3000:3050],
                                np.array([0, 1, 2], dtype=codes.dtype),
                                codes[3050:3098]])
    return aligner, deletion, insertion


def _sam_fields(aligner, read):
    return aligner.align_sam(read, "gapped").to_line().split("\t")


def test_insertion_read_is_aligned_through_the_gap(gapped):
    aligner, _deletion, insertion = gapped
    fields = _sam_fields(aligner, insertion)
    assert (fields[3], fields[5]) == ("3001", "50M3I48M")
    assert "AS:i:90" in fields


@pytest.mark.xfail(strict=True, reason=(
    "one-sided band: _window starts band // 2 before the chain's "
    "diagonal and both kernels centre the band on the window's main "
    "diagonal, so a deletion leaves the band (50M51S AS:i:50); ROADMAP "
    "7(a)"))
def test_deletion_read_is_aligned_through_the_gap(gapped):
    aligner, deletion, _insertion = gapped
    fields = _sam_fields(aligner, deletion)
    assert "D" in fields[5]
    assert "AS:i:93" in fields


def test_outcome_workload_populated(setup):
    ref, aligner = setup
    reads = ReadSimulator(ref, read_length=80, seed=95).simulate(5)
    for read in reads:
        out = aligner.align(read.codes)
        assert out.n_seeds >= 1
        assert out.n_chains >= 1
        total = out.workload.sw_extensions + out.workload.edit_checks
        assert total >= 1


def test_random_read_usually_unmapped(setup):
    import numpy as np
    ref, aligner = setup
    rng = np.random.default_rng(96)
    unmapped = 0
    for _ in range(10):
        junk = rng.integers(0, 4, size=80, dtype=np.uint8)
        out = aligner.align(junk)
        if out.alignment is None or out.alignment.score < 40:
            unmapped += 1
    assert unmapped >= 8


def _align_families(aligner, batches) -> "tuple[dict, dict]":
    """The ``align.*`` counters and histograms that ``extend_batch``
    leaves over ``batches``, with the per-read counts and observations
    of the same :attr:`read_stats` rows (the emission the batch flush
    replaced) as the second item."""
    from repro import telemetry
    from repro.extend.pipeline import MAX_CHAINS_EXTENDED
    from repro.telemetry.metrics import MetricsRegistry

    want = MetricsRegistry()
    telemetry.reset()
    telemetry.enable()
    try:
        for batch in batches:
            candidates = aligner.extend_batch(batch)
            for row, found in zip(aligner.read_stats, candidates):
                want.counter("align.reads").inc()
                want.counter("align.reads_mapped").inc(int(bool(found)))
                want.counter("align.chains").inc(row["chains"])
                want.counter("align.chains_extended").inc(
                    min(row["chains"], MAX_CHAINS_EXTENDED))
                for key in ("sw_extensions", "exact_lanes"):
                    if row[key]:
                        want.counter("align." + key).inc(row[key])
                want.histogram("align.seeds_per_read").observe(row["seeds"])
                want.histogram("align.chains_per_read").observe(
                    row["chains"])
        got = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()

    def families(snap):
        return {kind: {name: value for name, value in snap[kind].items()
                       if name.startswith("align.")}
                for kind in ("counters", "histograms")}

    return families(got), families(want.snapshot())


def test_align_families_flush_once_a_batch_as_read_by_read(setup):
    """``extend_batch`` lands the ``align.*`` families once a call: the
    counters and histograms of one batch equal those of its reads
    extended one at a time, and equal one count and one observation a
    read, zero counts included (a random read maps nowhere)."""
    ref, aligner = setup
    reads = [r.codes for r in ReadSimulator(
        ref, read_length=80, error_read_fraction=0.5,
        substitution_rate=0.03, seed=97).simulate(30)]
    reads.append(np.random.default_rng(98).integers(0, 4, size=80,
                                                    dtype=np.uint8))
    batched, per_read = _align_families(aligner, [reads])
    assert {"align.sw_extensions", "align.exact_lanes",
            "align.window_bp"} <= {*batched["counters"],
                                   *batched["histograms"]}
    window_bp = batched["histograms"].pop("align.window_bp")
    assert batched == per_read
    one_by_one, _ = _align_families(aligner, [[read] for read in reads])
    assert one_by_one["histograms"].pop("align.window_bp") == window_bp
    assert one_by_one == batched
    unmapped, _ = _align_families(aligner, [reads[-1:]])
    assert unmapped["counters"] == {
        "align.reads": 1, "align.reads_mapped": 0, "align.chains": 0,
        "align.chains_extended": 0}


def test_seedex_model_throughput():
    model = SeedExModel(SeedExConfig())
    workloads = [ExtensionWorkload(sw_extensions=1, sw_rows_total=101,
                                   edit_checks=1, edit_rows_total=101)
                 for _ in range(100)]
    tput = model.throughput_reads_per_s(workloads)
    assert tput > 0
    # Doubling the lanes must not reduce throughput.
    wide = SeedExModel(SeedExConfig(lanes=16))
    assert wide.throughput_reads_per_s(workloads) >= tput


def test_seedex_empty_workloads():
    model = SeedExModel()
    assert model.throughput_reads_per_s([]) == float("inf")


def test_seedex_config_validation():
    with pytest.raises(ValueError):
        SeedExConfig(lanes=0)


def test_seedex_cycles_monotone_in_rows():
    model = SeedExModel()
    small = ExtensionWorkload(sw_extensions=1, sw_rows_total=50)
    big = ExtensionWorkload(sw_extensions=1, sw_rows_total=150)
    assert (model.throughput_reads_per_s([big])
            < model.throughput_reads_per_s([small]))
