"""End-to-end alignment pipeline tests."""

import pytest

from repro.extend import ReadAligner, SeedExConfig, SeedExModel
from repro.extend.seedex import ExtensionWorkload
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


@pytest.mark.parametrize("substitution", [None, 40])
def test_edit_unit_clears_on_the_chain_diagonal(setup, substitution):
    """An exact read, and one with a substitution mid-read, are cleared
    by the edit-distance unit -- compared on the chain's diagonal, not
    at the window's start -- with the score and position the traceback
    alone gives them."""
    ref, aligner = setup
    read = ref.codes[2000:2080].copy()
    if substitution is not None:
        read[substitution] = (read[substitution] + 1) % 4
    cleared = aligner.align(read)
    traced = ReadAligner(ref, aligner.engine, aligner.params,
                         edit_check_first=False).align(read)
    assert cleared.workload.edit_checks >= 1
    assert cleared.workload.sw_extensions < cleared.workload.edit_checks
    assert cleared.alignment == traced.alignment
    assert (cleared.alignment.strand, cleared.alignment.position) \
        == (Strand.FORWARD, 2000)


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


def test_seedex_model_throughput():
    model = SeedExModel(SeedExConfig())
    workloads = []
    for _ in range(100):
        w = ExtensionWorkload()
        w.add_sw(101)
        w.add_edit(101)
        workloads.append(w)
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
    small = ExtensionWorkload()
    small.add_sw(50)
    big = ExtensionWorkload()
    big.add_sw(150)
    assert model.cycles_for(big) > model.cycles_for(small)
