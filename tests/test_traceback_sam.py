"""Tests for the traceback kernel, CIGAR production and SAM output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extend.sam import (
    FLAG_REVERSE,
    FLAG_UNMAPPED,
    mapq_from_scores,
    sam_header,
    write_sam,
)
from repro.extend.smith_waterman import DEFAULT_SCHEME, ScoringScheme
from repro.extend.traceback import (
    TracedAlignment, banded_sw_traceback, exact_lane)
from repro.kernels.traceback import _plane_dtype, batched_sw_traceback
from repro.sequence.alphabet import encode
from tests.sw_oracle import banded_smith_waterman

seqs = st.text(alphabet="ACGT", min_size=1, max_size=35)


def tb(q, t, band=41):
    return banded_sw_traceback(encode(q), encode(t), band=band)


def cigar_consumption(cigar):
    """(query bases, target bases) consumed by a CIGAR."""
    q = sum(n for op, n in cigar if op in "MXIS")
    t = sum(n for op, n in cigar if op in "MXD")
    return q, t


def score_from_cigar(traced, q, t, scheme=None):
    """Recompute the score by replaying the CIGAR over the sequences.

    A gap run of ``length`` costs ``gap_open`` plus ``length - 1`` times
    ``max(gap_open, gap_extend)``: when opening is the cheaper step the
    recurrence closes and reopens the gap inside one run."""
    scheme = scheme or ScoringScheme()
    step = max(scheme.gap_open, scheme.gap_extend)
    qi, ti = traced.query_start, traced.target_start
    score = 0
    for op, length in traced.cigar:
        if op == "S":
            continue
        if op in "MX":
            for _ in range(length):
                score += scheme.match if q[qi] == t[ti] else scheme.mismatch
                qi += 1
                ti += 1
        elif op == "I":
            score += scheme.gap_open + (length - 1) * step
            qi += length
        elif op == "D":
            score += scheme.gap_open + (length - 1) * step
            ti += length
    return score, qi, ti


def test_perfect_match_cigar():
    traced = tb("ACGTACGT", "ACGTACGT")
    assert traced.cigar == (("M", 8),)
    assert traced.score == 8


def test_soft_clips_on_local_alignment():
    traced = tb("TTACGTACGTTT", "ACGTACG")
    ops = [op for op, _n in traced.cigar]
    assert ops[0] == "S" and ops[-1] == "S"


def test_mismatch_marked_x():
    # Long matching flanks make aligning through the mismatch optimal.
    traced = tb("AAAAAAAACGAAAAAAAA", "AAAAAAAACCAAAAAAAA")
    assert any(op == "X" for op, _n in traced.cigar)
    assert traced.score == 17 * 1 - 4


def test_insertion_and_deletion():
    # Flanks long enough that opening one gap (-6) beats truncating.
    target = "ACGTACGTACTTGCATTGCA"
    with_extra = target[:10] + "G" + target[10:]
    ins = tb(with_extra, target)
    assert any(op == "I" for op, _n in ins.cigar)
    assert ins.score == 20 - 6
    dele = tb(target, with_extra)
    assert any(op == "D" for op, _n in dele.cigar)
    assert dele.score == 20 - 6


def test_unmapped_all_soft_clip():
    traced = tb("AAAA", "TTTT")
    assert traced.score == 0
    assert traced.cigar == (("S", 4),)


@settings(max_examples=60, deadline=None)
@given(seqs, seqs)
def test_traceback_score_matches_score_only_kernel(q, t):
    traced = banded_sw_traceback(encode(q), encode(t))
    plain = banded_smith_waterman(encode(q), encode(t))
    assert traced.score == plain.score


@settings(max_examples=60, deadline=None)
@given(seqs, seqs)
def test_cigar_is_internally_consistent(q, t):
    traced = banded_sw_traceback(encode(q), encode(t))
    q_used, t_used = cigar_consumption(traced.cigar)
    assert q_used == len(q)
    if traced.is_aligned:
        assert traced.query_end - traced.query_start > 0
        score, qi, ti = score_from_cigar(traced, q, t)
        assert qi == traced.query_end and ti == traced.target_end
        assert score == traced.score


def test_band_validation():
    with pytest.raises(ValueError):
        tb("A", "A", band=0)


def test_unaligned_return_shape_is_unified():
    """The empty-input early returns and the best == 0 path agree: a
    full soft-clip normalized through _merge, so an empty query yields
    an empty CIGAR and an empty target yields one S run -- the same
    shape a zero-scoring alignment of the same read produces."""
    empty = np.array([], dtype=np.int16)
    read = encode("ACGT")
    nothing = TracedAlignment(0, 0, 0, 0, 0, ())
    assert banded_sw_traceback(empty, read) == nothing
    assert banded_sw_traceback(empty, empty) == nothing
    assert banded_sw_traceback(read, empty) \
        == TracedAlignment(0, 0, 0, 0, 0, (("S", 4),))
    # A read that aligns nowhere scores 0 and must take the same shape.
    assert banded_sw_traceback(encode("AAAA"), encode("TTTT")) \
        == TracedAlignment(0, 0, 0, 0, 0, (("S", 4),))


#: Schemes for the band-binding checks: the default, a second
#: ``gap_open < gap_extend`` one, ``gap_open > gap_extend`` (beyond the
#: batched kernel's scan, so its scalar fallback) and the scan's edge
#: ``gap_open == gap_extend``.
SCHEMES = (DEFAULT_SCHEME,
           ScoringScheme(match=2, mismatch=-3, gap_open=-5, gap_extend=-2),
           ScoringScheme(match=1, mismatch=-1, gap_open=-1, gap_extend=-3),
           ScoringScheme(match=2, mismatch=-4, gap_open=-2, gap_extend=-2))


def assert_traceback_agrees(q, t, scheme, band):
    """``banded_sw_traceback(q, t)`` against the independent per-row
    score-only oracle (``tests/sw_oracle.py``), its own CIGAR replayed
    under ``scheme``, and the batched row-scan kernel wherever that can
    carry ``scheme``."""
    traced = banded_sw_traceback(q, t, scheme, band)
    plain = banded_smith_waterman(q, t, scheme, band)
    assert (traced.score, traced.query_end, traced.target_end) \
        == (plain.score, plain.query_end, plain.target_end)
    assert cigar_consumption(traced.cigar)[0] == len(q)
    if traced.is_aligned:
        assert score_from_cigar(traced, q, t, scheme) \
            == (traced.score, traced.query_end, traced.target_end)
    if _plane_dtype(len(q), 2 * (band // 2) + 2, scheme) is not None:
        assert batched_sw_traceback(q, [t], scheme, band) == [traced]


def test_traceback_shape_sweep():
    """Targets that grow and shrink between calls, planted and random,
    under bands that bind (1, 5) and one that mostly does not (41)."""
    rng = np.random.default_rng(99)
    cases = []
    for n in (1, 64, 7, 33, 2, 150, 10):
        q = rng.integers(0, 4, size=int(rng.integers(1, 80))) \
            .astype(np.int16)
        t = rng.integers(0, 4, size=n).astype(np.int16)
        if n > 20:  # plant the query so real alignments occur too
            t[:min(q.size, n)] = q[:min(q.size, n)]
        cases.append((q, t))
    for band in (1, 5, 41):
        for scheme in SCHEMES:
            for q, t in cases:
                assert_traceback_agrees(q, t, scheme, band)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(0, 120), planted=st.booleans(),
       edits=st.integers(0, 6), scheme=st.sampled_from(SCHEMES),
       band=st.sampled_from((1, 2, 5, 41, "2n+1")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_traceback_where_the_band_binds(m, planted, edits, scheme, band,
                                        seed):
    """Queries of 0-120 bp against targets of 0-180 bp -- random, or a
    copy of the query with planted substitutions / insertions /
    deletions between random flanks -- under narrow bands, the default
    band and the unbanded rescue width, over every scheme shape."""
    rng = np.random.default_rng(seed)
    query = [int(x) for x in rng.integers(0, 4, size=m)]
    if planted:
        copy = list(query)
        for _ in range(edits):
            at = int(rng.integers(0, len(copy) + 1))
            run = int(rng.integers(1, 9))
            kind = int(rng.integers(0, 3))
            if kind == 0 and copy:
                copy[min(at, len(copy) - 1)] = int(rng.integers(0, 4))
            elif kind == 1:
                copy[at:at] = [int(x) for x in rng.integers(0, 4, size=run)]
            else:
                del copy[at:at + run]
        flank = [int(x) for x in rng.integers(0, 4, size=60)]
        lead, tail = rng.integers(0, 31, size=2)
        target = (flank[:lead] + copy + flank[30:30 + tail])[:180]
    else:
        target = [int(x) for x in
                  rng.integers(0, 4, size=int(rng.integers(0, 181)))]
    if band == "2n+1":
        band = 2 * len(target) + 1
    assert_traceback_agrees(np.array(query, dtype=np.uint8),
                            np.array(target, dtype=np.uint8), scheme, band)


#: The band-binding schemes plus one whose scores need int32 planes.
EXACT_SCHEMES = SCHEMES + (ScoringScheme(match=200, mismatch=-300,
                                         gap_open=-500, gap_extend=-100),)


def assert_exact_lane_agrees(query, target, scheme, band):
    """``exact_lane`` is the DP's answer when it answers, and the DP
    scores below ``m * match`` when it does not -- also when the lane's
    target is searched in place inside a longer text."""
    q = np.array(query, dtype=np.uint8)
    t = np.array(target, dtype=np.uint8)
    hit = exact_lane(q.tobytes(), t.tobytes(), scheme, band)
    traced = banded_sw_traceback(q, t, scheme, band)
    if hit is None:
        assert traced.score < len(q) * scheme.match
    else:
        assert hit == traced
        assert batched_sw_traceback(q, [t], scheme, band) == [hit]
    text = bytes([3, 0, 2]) * 7 + t.tobytes() + bytes([1, 2]) * 9
    assert exact_lane(q.tobytes(), text, scheme, band, 21,
                      21 + t.size) == hit
    return hit


def test_exact_lane_band_edges_and_leftmost_copy():
    """Copies planted at offset 0 and ``band // 2`` are answered, one at
    ``band // 2 + 1`` is not; of two copies the leftmost wins; a target
    shorter than ``m + band // 2`` and empty inputs agree with the DP."""
    rng = np.random.default_rng(321)
    query = rng.integers(0, 4, size=30).tolist()
    flank = rng.integers(0, 4, size=120).tolist()
    for scheme in EXACT_SCHEMES:
        for band in (1, 2, 3, 41):
            half = band // 2
            for offset, expected in ((0, True), (half, True),
                                     (half + 1, False)):
                target = flank[:offset] + query + flank[60:60 + half]
                hit = assert_exact_lane_agrees(query, target, scheme, band)
                assert (hit is not None) == expected
                if expected:
                    assert (hit.target_start, hit.cigar) \
                        == (offset, (("M", 30),))
            if half >= 1:
                # A homopolymer run: copies at every offset 0 .. half.
                run = [2] * 12
                hit = assert_exact_lane_agrees(run, run + [2] * half + flank,
                                               scheme, band)
                assert hit.target_start == 0
            short = flank[:half] + query[:29]
            assert assert_exact_lane_agrees(query, short, scheme,
                                            band) is None
        for q, t in (([], []), ([], query), (query, [])):
            assert_exact_lane_agrees(q, t, scheme, 41)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(0, 60),
       place=st.sampled_from(("start", "edge", "past", "two", "any",
                              "none")),
       short=st.booleans(), substitute=st.booleans(),
       scheme=st.sampled_from(EXACT_SCHEMES),
       band=st.sampled_from((1, 2, 3, 41, "2n+1")),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_lane_is_the_dp_answer(m, place, short, substitute, scheme,
                                     band, seed):
    """Random queries planted at the band's edges, twice, anywhere or
    not at all (with or without a substitution), in targets that may
    end before ``m + band // 2``, under narrow, default and unbanded
    rescue bands and every scheme shape."""
    rng = np.random.default_rng(seed)
    query = rng.integers(0, 4, size=m).tolist()
    target = rng.integers(0, 4, size=int(rng.integers(0, m + 60))).tolist()
    half = len(target) if band == "2n+1" else band // 2
    copy = list(query)
    if substitute and copy:
        at = int(rng.integers(0, m))
        copy[at] = (copy[at] + 1) % 4
    offsets = {"start": [0], "edge": [half], "past": [half + 1],
               "two": sorted({int(x) for x in rng.integers(0, half + 1,
                                                           size=2)}),
               "any": [int(rng.integers(0, len(target) + 1))],
               "none": []}[place]
    for offset in offsets:
        target += rng.integers(0, 4, size=max(
            0, offset + m - len(target))).tolist()
        target[offset:offset + m] = copy
    if short:
        target = target[:int(rng.integers(0, m + half + 1))]
    if band == "2n+1":
        band = 2 * len(target) + 1
    assert_exact_lane_agrees(query, target, scheme, band)


def test_mapq_model():
    assert mapq_from_scores(0, 0, 100) == 0
    assert mapq_from_scores(100, 0, 100) == 60
    assert mapq_from_scores(100, 100, 100) == 0
    assert 0 < mapq_from_scores(100, 50, 100) < 60


def test_align_sam_end_to_end(tmp_path):
    from repro.extend import ReadAligner
    from repro.fmindex import FmdIndex, FmdSeedingEngine
    from repro.seeding import SeedingParams
    from repro.sequence import GenomeSimulator, ReadSimulator, Strand

    ref = GenomeSimulator(seed=111, interspersed_fraction=0.05).generate(4000)
    aligner = ReadAligner(ref, FmdSeedingEngine(FmdIndex(ref)),
                          SeedingParams(min_seed_len=12))
    reads = ReadSimulator(ref, read_length=70, error_read_fraction=0.3,
                          seed=112).simulate(15)
    records = [aligner.align_sam(r.codes, r.name, r.quality) for r in reads]

    mapped = [rec for rec in records if not rec.flag & FLAG_UNMAPPED]
    assert len(mapped) >= 13
    correct = 0
    for read, rec in zip(reads, records):
        if rec.flag & FLAG_UNMAPPED:
            continue
        is_reverse = bool(rec.flag & FLAG_REVERSE)
        assert (rec.flag & FLAG_REVERSE != 0) == \
            (is_reverse)
        assert rec.pos >= 1
        assert rec.cigar and rec.cigar != "*"
        strand = Strand.REVERSE if is_reverse else Strand.FORWARD
        if strand == read.strand and abs(rec.pos - 1 - read.origin) <= 3:
            correct += 1
    assert correct >= 11

    # SAM file structure.
    path = tmp_path / "out.sam"
    write_sam(path, ref, records)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("@HD")
    assert any(line.startswith("@SQ") for line in lines[:3])
    body = [line for line in lines if not line.startswith("@")]
    assert len(body) == len(records)
    for line in body:
        fields = line.split("\t")
        assert len(fields) >= 11


def test_sam_header_fields(reference):
    header = sam_header(reference)
    assert f"LN:{len(reference)}" in header[1]
