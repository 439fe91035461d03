"""Trace from the score: every scored DP lane's CIGAR without a walk,
unless its best path has a gap.

:func:`diagonal_lanes` turns a lane's score-only result ``(best, i, j)``
into :func:`banded_sw_traceback`'s full answer whenever the best path
is ungapped (docs/algorithms.md, "Lanes traced from their score"), and
returns ``None`` otherwise.  The property below holds it to the scalar
oracle lane by lane.  With ``sw_batch`` and ``tb_batch`` injected,
:class:`ReadAligner` scores every DP lane, takes the ungapped ones from
the certificate and traces only the gapped ones; the pipeline tests
hold SAM records, :meth:`ReadAligner.align`, ``read_stats`` and the
paired-end candidates to the oracle on tied best scores, hand-built
gapped reads, mixed read lengths and reads across the strand seam, at
batch sizes 1, 7 and 64, with and without exact lanes.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.extend import pipeline
from repro.extend.paired import PairedAligner
from repro.extend.pipeline import ReadAligner
from repro.extend.smith_waterman import DEFAULT_SCHEME, ScoringScheme
from repro.extend.traceback import (
    LaneScore, banded_sw_traceback, diagonal_lanes)
from repro.kernels.traceback import batched_banded_sw, batched_sw_traceback
from repro.seeding.algorithm import seed_batch
from repro.seeding import SeedingParams
from repro.sequence.alphabet import revcomp_codes
from repro.sequence.reference import Reference

#: The default scheme, one with a cheaper mismatch and gap, one whose
#: gap open is cheaper than its extension (the batched kernel's scalar
#: fallback) and one with a large match.
SCHEMES = (DEFAULT_SCHEME,
           ScoringScheme(match=1, mismatch=-1, gap_open=-2, gap_extend=-1),
           ScoringScheme(match=3, mismatch=-2, gap_open=-2, gap_extend=-3),
           ScoringScheme(match=5, mismatch=-4, gap_open=-7, gap_extend=-2))


def _has_gap(traced) -> bool:
    return any(op in "ID" for op, _ in traced.cigar)


def assert_certificate_agrees(queries, targets, scheme, band):
    """Score every lane with the scalar oracle, hand the certificate
    only the score and end cell, and check it returns the oracle's
    alignment field for field, or ``None`` exactly when the oracle's
    CIGAR holds an ``I`` or ``D``; returns the oracle's answers."""
    block = np.array(queries, dtype=np.uint8).reshape(len(queries), -1)
    windows = [np.array(t, dtype=np.uint8) for t in targets]
    want = [banded_sw_traceback(q, t, scheme, band)
            for q, t in zip(block, windows)]
    got = diagonal_lanes(block, windows, [
        LaneScore(w.score, w.query_end, w.target_end) for w in want],
        scheme)
    for g, w in zip(got, want):
        assert (g is None) == _has_gap(w), (g, w)
        if g is not None:
            assert g == w
    return want


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 40), lanes=st.integers(1, 6),
       alphabet=st.integers(1, 4), scheme=st.sampled_from(SCHEMES),
       band=st.sampled_from((1, 3, 7, 21, 41, "2n+1")),
       data=st.data())
def test_certificate_is_the_oracle_or_none(m, lanes, alphabet, scheme,
                                           band, data):
    """Lanes of one ``(lanes, m)`` block over a 1-4 letter alphabet (few
    letters make tied cells and repeats): each target is a copy of its
    query with substitutions, insertions and deletions (and a zero-sum
    prefix) between random flanks, or random, or empty; under narrow,
    default and unbanded bands and every scheme shape."""
    base = st.integers(0, alphabet - 1)
    queries, targets = [], []
    for _ in range(lanes):
        query = data.draw(st.lists(base, min_size=m, max_size=m))
        copy = list(query)
        for kind, at, run in data.draw(st.lists(st.tuples(
                st.sampled_from("SID"), st.integers(0, m),
                st.integers(1, 6)), max_size=4)):
            at = min(at, len(copy))
            if kind == "S" and at < len(copy):
                copy[at] = (copy[at] + 1) % 4
            elif kind == "I":
                copy[at:at] = data.draw(st.lists(base, min_size=run,
                                                 max_size=run))
            elif kind == "D":
                del copy[at:at + run]
        # Matches then one mismatch at the copy's start: under a scheme
        # where they sum to 0, the diagonal reaches the best score twice.
        decoy = -(scheme.mismatch // scheme.match)
        if data.draw(st.booleans()) and decoy < min(m, len(copy)):
            copy[:decoy + 1] = query[:decoy] + [(query[decoy] + 1) % 4]
        flanks = st.lists(base, max_size=25)
        target = data.draw(st.one_of(
            st.tuples(flanks, flanks).map(
                lambda f, c=copy: f[0] + c + f[1]),
            st.lists(base, max_size=60)))
        queries.append(query)
        targets.append(target)
    if band == "2n+1":
        band = 2 * max(len(t) for t in targets) + 1
    assert_certificate_agrees(queries, targets, scheme, band)


def test_certificate_takes_the_first_best_step():
    """Hand-built lanes where the diagonal sum reaches the best score at
    two steps back -- a zero-sum prefix, ``MMMMX`` under the default
    scheme -- so only the nearer one is the walk's stop; a homopolymer
    whose diagonal runs off the window's first column; a one-base
    shift that makes the best path gapped; and an empty last target."""
    rng = np.random.default_rng(44)
    tail = rng.integers(0, 4, size=30).tolist()
    zero_sum = [0, 0, 0, 0]
    query = zero_sum + [1] + tail
    target = zero_sum + [2] + tail               # MMMMX, then 30 M
    want = assert_certificate_agrees([query], [target], DEFAULT_SCHEME,
                                     41)[0]
    assert want.cigar == (("S", 5), ("M", 30))
    homopolymer = [3] * 35
    want = assert_certificate_agrees([homopolymer], [[3] * 20 + [0] * 9],
                                     DEFAULT_SCHEME, 41)[0]
    assert want.query_start == want.target_start == 0
    shifted = tail[:15] + [0] + tail[15:] + [1] * 4
    want = assert_certificate_agrees([tail + [1] * 5], [shifted],
                                     SCHEMES[1], 41)[0]
    assert _has_gap(want)
    want = assert_certificate_agrees([query, query], [target, []],
                                     DEFAULT_SCHEME, 41)
    assert want[1].score == 0


PARAMS = SeedingParams(min_seed_len=12)


def _substitute(codes: np.ndarray, at: int) -> np.ndarray:
    out = codes.copy()
    out[at] = (out[at] + 1) % 4
    return out


class Genome:
    """A 3 kbp random genome with three planted cases:

    * ``seam``: ``tail[1:] + revcomp(tail)`` for the genome's last 51
      bases ``tail`` -- a read whose only exact copy straddles the
      strand seam of the double-strand text, so that copy is dropped --
      with a one-substitution copy at 1 000, its best placement;
    * ``segment``: 150 bp planted at 1 500 and 2 200 with one different
      substitution each, so a read cut from it has two DP lanes of the
      same score and different CIGARs.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(4141)
        codes = rng.integers(0, 4, size=3000).astype(np.uint8)
        tail = codes[-51:].copy()
        self.seam = np.concatenate([tail[1:], revcomp_codes(tail)])
        codes[1000:1101] = _substitute(self.seam, 60)
        self.segment = rng.integers(0, 4, size=150).astype(np.uint8)
        codes[1500:1650] = _substitute(self.segment, 40)
        codes[2200:2350] = _substitute(self.segment, 90)
        self.reference = Reference("planted", codes)
        self.index = build_ert(self.reference, ErtConfig(
            k=6, max_seed_len=120, table_threshold=32, table_x=3))

    def read(self, kind: str, rng: np.random.Generator) -> np.ndarray:
        codes = self.reference.codes
        if kind == "seam":
            return self.seam.copy()
        if kind == "seam_dp":    # no exact copy: the seam lane is DP
            return _substitute(self.seam, int(rng.integers(10, 41)))
        if kind == "tie":
            start = int(rng.integers(0, 31))
            return self.segment[start:start + 101].copy()
        if kind == "junk":
            return rng.integers(0, 4, size=101).astype(np.uint8)
        length = 60 if kind == "short" else 101
        start = int(rng.integers(0, codes.size - length - 10))
        read = codes[start:start + length + 10].copy()
        for _ in range(int(rng.integers(0, 3))):
            read = _substitute(read, int(rng.integers(0, read.size)))
        if kind == "gapped":     # hand-built indels
            for _ in range(int(rng.integers(1, 3))):
                at = int(rng.integers(20, length - 20))
                run = int(rng.integers(1, 6))
                if rng.integers(0, 2):
                    read = np.delete(read, np.s_[at:at + run])
                else:
                    read = np.insert(read, at, rng.integers(0, 4, size=run)
                                     ).astype(np.uint8)
        read = read[:length]
        return revcomp_codes(read) if rng.integers(0, 2) else read


KINDS = ("substituted", "short", "gapped", "tie", "seam", "seam_dp",
         "junk")


@pytest.fixture(scope="module")
def genome():
    return Genome()


class Recorder:
    """``sw_batch`` / ``tb_batch`` hooks that record what they were
    handed and check that a traced lane that was scored first traced to
    the score and end cell it scored; ``unscored`` counts the traced
    lanes that were not."""

    def __init__(self) -> None:
        self.scored: "dict[tuple[bytes, bytes], LaneScore]" = {}
        self.scored_lanes = self.traced_lanes = self.unscored = 0

    @staticmethod
    def _keys(block, windows):
        return [(np.asarray(q, dtype=np.uint8).tobytes(),
                 np.asarray(w, dtype=np.uint8).tobytes())
                for q, w in zip(block, windows)]

    def sw_batch(self, block, windows, scheme, band, workspace=None):
        out = batched_banded_sw(block, windows, scheme, band,
                                workspace=workspace)
        self.scored_lanes += len(windows)
        self.scored.update(zip(self._keys(block, windows), out))
        return out

    def tb_batch(self, block, windows, scheme, band, workspace=None):
        out = batched_sw_traceback(block, windows, scheme, band,
                                   workspace=workspace)
        self.traced_lanes += len(windows)
        for key, traced in zip(self._keys(block, windows), out):
            if key not in self.scored:
                self.unscored += 1
                continue
            assert self.scored[key] == LaneScore(
                traced.score, traced.query_end, traced.target_end)
        return out


def _aligners(genome):
    engine = ErtSeedingEngine(genome.index)
    recorder = Recorder()
    oracle = ReadAligner(genome.reference, engine, params=PARAMS)
    deferred = ReadAligner(genome.reference, engine, params=PARAMS,
                           sw_batch=recorder.sw_batch,
                           tb_batch=recorder.tb_batch)
    return engine, oracle, deferred, recorder


def _oracle_lanes(run):
    """``run()`` with the oracle's per-lane scalar kernel recorded: its
    result and every DP lane's :class:`TracedAlignment`."""
    lanes = []

    def kernel(*args):
        lanes.append(banded_sw_traceback(*args))
        return lanes[-1]

    with mock.patch.object(pipeline, "banded_sw_traceback", kernel):
        return run(), lanes


@settings(max_examples=20, deadline=None)
@given(data=st.data(), batch=st.sampled_from((1, 7, 64)),
       all_dp=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_deferred_trace_equals_the_oracle(genome, data, batch, all_dp, seed):
    """``align_sam_batch``, ``align()`` and ``read_stats`` under
    ``sw_batch`` + ``tb_batch`` equal the scalar oracle's, with every
    lane DP when ``exact_lane`` is patched out; every DP lane is scored
    and exactly the gapped ones are traced."""
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=batch,
                               max_size=batch))
    rng = np.random.default_rng(seed)
    reads = [genome.read(kind, rng) for kind in kinds]
    names = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    engine, oracle, deferred, recorder = _aligners(genome)
    seedings = seed_batch(engine, reads, PARAMS)
    with mock.patch("repro.extend.pipeline.exact_lane",
                    return_value=None) if all_dp else nullcontext():
        want, lanes = _oracle_lanes(lambda: oracle.align_sam_batch(
            reads, names, [""] * batch, seedings))
        want_stats = oracle.read_stats
        got = deferred.align_sam_batch(reads, names, [""] * batch, seedings)
        assert got == want
        assert deferred.read_stats == want_stats
        assert recorder.scored_lanes == len(lanes) == sum(
            row["sw_extensions"] for row in want_stats)
        assert recorder.traced_lanes == sum(map(_has_gap, lanes))
        assert recorder.unscored == 0
        for read, name, seeding in list(zip(reads, names, seedings))[:8]:
            assert deferred.align(read, name, seeding) \
                == oracle.align(read, name, seeding)
            assert deferred.read_stats == oracle.read_stats


@pytest.mark.parametrize("kind", ["tie", "seam", "seam_dp"])
def test_planted_cases_take_their_rule(genome, kind):
    """Each planted case reaches the case it is there for, and each is
    answered from the score alone: the tied read has two DP lanes of its
    best score and different records; the seam read's only exact lane is
    dropped, so a DP lane is its best; the substituted seam read has a
    positive DP lane across the seam that is dropped, and a DP lane
    elsewhere is its best."""
    rng = np.random.default_rng(7)
    read = genome.read(kind, rng)
    engine, oracle, deferred, recorder = _aligners(genome)
    placements = oracle.extend_batch([read])[0]
    stats = oracle.read_stats[0]
    record = deferred.align_sam(read, kind)
    assert record == oracle.align_sam(read, kind)
    if kind == "tie":
        best = [p for p in placements
                if p.score == max(q.score for q in placements)]
        assert len(best) == 2 and best[0].cigar != best[1].cigar
        assert record.cigar == best[0].cigar
    else:
        assert stats["exact_lanes"] == (1 if kind == "seam" else 0)
        assert len(placements) < stats["sw_extensions"] \
            + stats["exact_lanes"]                    # the seam lane went
        assert record.pos - 1 == 1000       # the planted copy, either strand
    assert recorder.scored_lanes == stats["sw_extensions"] > 0
    assert recorder.traced_lanes == 0


def _indel_read(genome, at: int = 50, run: int = 3) -> np.ndarray:
    """101 bases of the reference from 300 with ``run`` random bases
    inserted after its first ``at``.  (A deletion read is no use here:
    the one-sided band of ROADMAP 7(a) aligns it ungapped.)"""
    codes = genome.reference.codes
    inserted = np.random.default_rng(at).integers(0, 4, size=run)
    return np.concatenate([codes[300:300 + at], inserted,
                           codes[300 + at:401 - run]]).astype(np.uint8)


@pytest.mark.parametrize("at,run", [(50, 3), (30, 1)])
def test_indel_reads_reach_tb_batch(genome, at, run):
    """A gapped best path has no certificate: the hand-built indel read
    goes to ``tb_batch`` (``kernels.traced_lanes > 0``) and prints the
    oracle's record, whose CIGAR holds the gap."""
    read = _indel_read(genome, at, run)
    _, oracle, deferred, recorder = _aligners(genome)
    telemetry.reset()
    telemetry.enable()
    try:
        record = deferred.align_sam(read, "indel")
        counters = telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    want, lanes = _oracle_lanes(lambda: oracle.align_sam(read, "indel"))
    assert record == want
    assert counters["kernels.traced_lanes"] == recorder.traced_lanes \
        == sum(map(_has_gap, lanes)) > 0
    assert f"{run}I" in record.cigar


def test_paired_candidates_come_from_the_score(genome):
    """Pairing reads every candidate's position, and the certificate
    gives every scored lane one: ``align-pe``'s extension scores every
    DP lane, traces only the gapped ones, and its candidates and records
    equal the oracle's."""
    rng = np.random.default_rng(11)
    reads = [genome.read(kind, rng) for kind in KINDS] \
        + [_indel_read(genome)]
    _, oracle, deferred, recorder = _aligners(genome)
    got = deferred.extend_batch(reads)
    want, lanes = _oracle_lanes(lambda: oracle.extend_batch(reads))
    assert got == want
    assert recorder.scored_lanes == len(lanes)
    assert recorder.traced_lanes == sum(map(_has_gap, lanes)) > 0
    pairs = reads[:-1] + [reads[0]]
    names = [f"p{i}" for i in range(len(pairs) // 2)]
    assert PairedAligner(deferred).align_pairs(pairs, names,
                                               [""] * len(pairs)) \
        == PairedAligner(oracle).align_pairs(pairs, names,
                                             [""] * len(pairs))


def test_traced_lanes_counter(genome):
    """``kernels.traced_lanes`` counts the lanes handed to ``tb_batch``:
    the gapped ones among the DP lanes scored (``align.sw_extensions``)."""
    rng = np.random.default_rng(5)
    reads = [genome.read(KINDS[i % len(KINDS)], rng) for i in range(40)]
    _, oracle, deferred, recorder = _aligners(genome)
    telemetry.reset()
    telemetry.enable()
    try:
        deferred.align_sam_batch(reads, [f"r{i}" for i in range(40)],
                                 [""] * 40)
        counters = telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    _, lanes = _oracle_lanes(lambda: oracle.extend_batch(reads))
    assert counters["kernels.traced_lanes"] == recorder.traced_lanes \
        == sum(map(_has_gap, lanes))
    assert counters["align.sw_extensions"] == recorder.scored_lanes
    assert 0 < recorder.traced_lanes < recorder.scored_lanes


def test_sw_batch_needs_tb_batch(genome):
    """The score-only hook has no walk of its own to fall back on."""
    engine = ErtSeedingEngine(genome.index)
    with pytest.raises(ValueError):
        ReadAligner(genome.reference, engine, params=PARAMS,
                    sw_batch=batched_banded_sw)
