"""Score every DP lane, trace only what single-end output reads.

With ``sw_batch`` and ``tb_batch`` injected, :class:`ReadAligner` scores
every DP lane in one pass and traces a lane only where a single-end
record can read its start or CIGAR (docs/algorithms.md, "Which lanes
are traced").  These tests hold that schedule to the scalar oracle,
which traces every lane: SAM records, :meth:`ReadAligner.align` and
``read_stats`` must be equal on tied best scores, hand-built gapped
reads and reads across the strand seam, at batch sizes 1, 7 and 64, with
and without exact lanes.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.extend.pipeline import ReadAligner
from repro.extend.sam import mapped_record
from repro.extend.traceback import LaneScore
from repro.kernels.traceback import batched_banded_sw, batched_sw_traceback
from repro.seeding import SeedingParams
from repro.seeding.algorithm import seed_batch
from repro.sequence.alphabet import revcomp_codes
from repro.sequence.reference import Reference, Strand

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


@settings(max_examples=20, deadline=None)
@given(data=st.data(), batch=st.sampled_from((1, 7, 64)),
       all_dp=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_deferred_trace_equals_the_oracle(genome, data, batch, all_dp, seed):
    """``align_sam_batch``, ``align()`` and ``read_stats`` under
    ``sw_batch`` + ``tb_batch`` equal the scalar oracle's, with every
    lane DP when ``exact_lane`` is patched out."""
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=batch,
                               max_size=batch))
    rng = np.random.default_rng(seed)
    reads = [genome.read(kind, rng) for kind in kinds]
    names = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    engine, oracle, deferred, recorder = _aligners(genome)
    seedings = seed_batch(engine, reads, PARAMS)
    with mock.patch("repro.extend.pipeline.exact_lane",
                    return_value=None) if all_dp else nullcontext():
        want = oracle.align_sam_batch(reads, names, [""] * batch, seedings)
        want_stats = oracle.read_stats
        got = deferred.align_sam_batch(reads, names, [""] * batch, seedings)
        assert got == want
        assert deferred.read_stats == want_stats
        assert recorder.scored_lanes == sum(row["sw_extensions"]
                                            for row in want_stats)
        assert recorder.traced_lanes <= recorder.scored_lanes
        assert recorder.unscored == 0
        for read, name, seeding in list(zip(reads, names, seedings))[:8]:
            assert deferred.align(read, name, seeding) \
                == oracle.align(read, name, seeding)
            assert deferred.read_stats == oracle.read_stats


@pytest.mark.parametrize("kind", ["tie", "seam", "seam_dp"])
def test_planted_cases_take_their_rule(genome, kind):
    """Each planted case reaches the rule it is there for: the tied
    read has two DP lanes of its best score and different records; the
    seam read's only exact lane is dropped, so a DP lane is its best;
    the substituted seam read has a positive DP lane across the seam
    that is dropped, and a DP lane elsewhere is its best."""
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
    assert recorder.traced_lanes < recorder.scored_lanes


def test_a_score_only_placement_prints_nothing(genome):
    """A placement left score-only reaches no output: SAM formatting and
    ``align()`` refuse it rather than print a made-up record."""
    read = genome.read("tie", np.random.default_rng(3))
    _, _, deferred, _ = _aligners(genome)
    with mock.patch.object(ReadAligner, "_select_traced",
                           return_value=[]):
        with pytest.raises(ValueError):
            deferred.align_sam(read, "tie")
        with pytest.raises(ValueError):
            deferred.align(read, "tie")
    with pytest.raises(ValueError):
        mapped_record("r", "ACGT", "IIII", genome.reference,
                      Strand.FORWARD, None, None, 4, 60)


def test_paired_candidates_are_all_traced(genome):
    """Pairing reads every candidate's position, so ``align-pe``'s
    extension traces every DP lane even with ``sw_batch`` injected."""
    rng = np.random.default_rng(11)
    reads = [genome.read(kind, rng) for kind in KINDS]
    _, oracle, deferred, recorder = _aligners(genome)
    got = deferred.extend_batch(reads, trace_all=True)
    assert got == oracle.extend_batch(reads)
    assert recorder.scored_lanes == 0
    assert recorder.traced_lanes == sum(row["sw_extensions"]
                                        for row in oracle.read_stats)


def test_traced_lanes_counter(genome):
    """``kernels.traced_lanes`` counts the lanes handed to ``tb_batch``:
    fewer than the DP lanes scored (``align.sw_extensions``)."""
    rng = np.random.default_rng(5)
    reads = [genome.read(KINDS[i % len(KINDS)], rng) for i in range(40)]
    _, _, deferred, recorder = _aligners(genome)
    telemetry.reset()
    telemetry.enable()
    try:
        deferred.align_sam_batch(reads, [f"r{i}" for i in range(40)],
                                 [""] * 40)
        counters = telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    assert counters["kernels.traced_lanes"] == recorder.traced_lanes
    assert counters["align.sw_extensions"] == recorder.scored_lanes
    assert 0 < recorder.traced_lanes < recorder.scored_lanes


def test_sw_batch_needs_tb_batch(genome):
    """The score-only hook has no walk of its own to fall back on."""
    engine = ErtSeedingEngine(genome.index)
    with pytest.raises(ValueError):
        ReadAligner(genome.reference, engine, params=PARAMS,
                    sw_batch=batched_banded_sw)
