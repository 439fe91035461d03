"""Tests for paired-end simulation and alignment."""

import numpy as np
import pytest

from repro.extend import ReadAligner
from repro.extend.paired import (
    FLAG_FIRST,
    FLAG_PAIRED,
    FLAG_PROPER,
    FLAG_SECOND,
    PairedAligner,
    Placement,
)
from repro.seeding import SeedingParams
from repro.sequence import GenomeSimulator, Strand
from repro.sequence.alphabet import decode, revcomp, revcomp_codes
from repro.sequence.simulate import PairedReadSimulator


@pytest.fixture(scope="module")
def paired_setup():
    from repro.fmindex import FmdIndex, FmdSeedingEngine
    # Repeats shorter than a read: alignment can always disambiguate, so
    # the test isolates the pairing logic from repeat multi-mapping.
    sim = GenomeSimulator(seed=131, interspersed_fraction=0.04,
                          element_length=50, segdup_fraction=0.0,
                          tandem_fraction=0.02)
    ref = sim.generate(8000)
    aligner = ReadAligner(ref, FmdSeedingEngine(FmdIndex(ref)),
                          SeedingParams(min_seed_len=12))
    paired = PairedAligner(aligner, insert_mean=300, insert_sd=30)
    return ref, paired


def test_simulator_geometry():
    ref = GenomeSimulator(seed=132).generate(5000)
    sim = PairedReadSimulator(ref, read_length=80, insert_mean=300,
                              insert_sd=20, error_read_fraction=0.0,
                              seed=133)
    for pair in sim.simulate(30):
        assert len(pair.first) == len(pair.second) == 80
        assert pair.fragment_length >= 80
        assert pair.first.strand != pair.second.strand
        # FR orientation on the forward reference.
        fwd = pair.first if pair.first.strand is Strand.FORWARD \
            else pair.second
        rev = pair.second if fwd is pair.first else pair.first
        assert fwd.origin <= rev.origin


def test_simulator_sequences_match_reference():
    ref = GenomeSimulator(seed=134).generate(5000)
    sim = PairedReadSimulator(ref, read_length=60, insert_mean=250,
                              insert_sd=10, error_read_fraction=0.0,
                              seed=135)
    for pair in sim.simulate(15):
        for read in (pair.first, pair.second):
            fwd = decode(ref.codes[read.origin:read.origin + 60])
            expected = fwd if read.strand is Strand.FORWARD else revcomp(fwd)
            assert read.sequence == expected


def test_simulator_validation():
    ref = GenomeSimulator(seed=136).generate(500)
    with pytest.raises(ValueError):
        PairedReadSimulator(ref, read_length=200, insert_mean=100)
    with pytest.raises(ValueError):
        PairedReadSimulator(ref, read_length=50, insert_mean=450,
                            insert_sd=50)


def test_is_proper(paired_setup):
    _ref, paired = paired_setup
    fwd = Placement(50, Strand.FORWARD, 1000, "50M")
    rev_near = Placement(50, Strand.REVERSE, 1250, "50M")
    rev_far = Placement(50, Strand.REVERSE, 5000, "50M")
    rev_left = Placement(50, Strand.REVERSE, 500, "50M")
    same = Placement(50, Strand.FORWARD, 1250, "50M")
    assert paired._is_proper(fwd, rev_near)
    assert paired._is_proper(rev_near, fwd)
    assert not paired._is_proper(fwd, rev_far)
    assert not paired._is_proper(fwd, rev_left)
    assert not paired._is_proper(fwd, same)


def test_pairs_align_properly(paired_setup):
    ref, paired = paired_setup
    sim = PairedReadSimulator(ref, read_length=80, insert_mean=300,
                              insert_sd=30, error_read_fraction=0.2,
                              seed=137)
    pairs = sim.simulate(15)
    proper = 0
    correct = 0
    for pair in pairs:
        rec1, rec2 = paired.align_pair(pair.first.codes, pair.second.codes,
                                       name="p")
        for rec, read in ((rec1, pair.first), (rec2, pair.second)):
            assert rec.flag & FLAG_PAIRED
            if not rec.flag & 0x4 and abs(rec.pos - 1 - read.origin) <= 3:
                correct += 1
        assert rec1.flag & FLAG_FIRST
        assert rec2.flag & FLAG_SECOND
        if rec1.flag & FLAG_PROPER:
            proper += 1
            assert rec2.flag & FLAG_PROPER
    # Planted repeats make some fragments genuinely ambiguous (a mate's
    # exact copy elsewhere breaks the insert envelope), so thresholds
    # leave room for a few repeat-origin pairs.
    assert proper >= 9
    assert correct >= 22  # of 30 mates


def test_mate_rescue(paired_setup):
    """A mate mangled beyond seeding must be rescued from its anchor."""
    ref, paired = paired_setup
    sim = PairedReadSimulator(ref, read_length=80, insert_mean=300,
                              insert_sd=30, error_read_fraction=0.0,
                              seed=138)
    rescued_works = 0
    for pair in sim.simulate(8):
        # Mangle the second mate: substitutions every 10 bp make 12+ bp
        # seeds scarce while leaving 90 % identity for the SW rescue.
        mangled = pair.second.codes.copy()
        for i in range(4, mangled.size, 10):
            mangled[i] = (mangled[i] + 1) % 4
        rec1, rec2 = paired.align_pair(pair.first.codes, mangled, name="p")
        if not rec2.flag & 0x4 and abs(rec2.pos - 1 - pair.second.origin) <= 5:
            rescued_works += 1
    assert rescued_works >= 6


def test_rescue_far_off_the_diagonal_is_pinned(paired_setup):
    """A mate 330 / 248 bp into its 420 bp rescue window, with a
    substitution, an insertion and a deletion: the unbanded rescue
    traceback places it at these pinned coordinates and CIGARs."""
    ref, paired = paired_setup

    def edited(segment):
        codes = [int(x) for x in segment]
        codes[17] = (codes[17] + 1) % 4
        codes[40:40] = [(codes[40] + 2) % 4] * 2
        del codes[61:64]
        return np.array(codes, dtype=np.uint8)

    mate = revcomp_codes(edited(ref.codes[1330:1413]))
    assert paired._rescue(mate, Placement(80, Strand.FORWARD, 1000, "80M")) \
        == Placement(60, Strand.REVERSE, 1330, "17M1X21M2I19M3D22M")
    mate = edited(ref.codes[3910:3993])
    assert paired._rescue(mate, Placement(80, Strand.REVERSE, 4000, "80M")) \
        == Placement(60, Strand.FORWARD, 3910, "17M1X22M2I19M3D21M")


def test_both_unmapped(paired_setup):
    _ref, paired = paired_setup
    rng = np.random.default_rng(139)
    junk1 = rng.integers(0, 4, size=60, dtype=np.uint8)
    junk2 = rng.integers(0, 4, size=60, dtype=np.uint8)
    rec1, rec2 = paired.align_pair(junk1, junk2, name="junk")
    # Junk reads either fail to map or map with low score/MAPQ.
    for rec in (rec1, rec2):
        assert rec.flag & FLAG_PAIRED
        if not rec.flag & 0x4:
            assert rec.mapq <= 30
