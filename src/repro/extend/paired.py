"""Paired-end alignment: pair scoring, orientation checks, mate rescue.

The paper evaluates single-ended reads, but any adoptable aligner built
on its seeding engine must handle pairs (BWA-MEM's primary mode).  The
pairing logic is the standard one: both mates produce candidate
placements; the pair maximizing ``score1 + score2 + PROPER_BONUS`` wins,
where *proper* means Illumina FR orientation with a template length
within ``insert_mean +/- 4 * insert_sd``.  A mate with no candidates is
*rescued* by a banded traceback search in the window the other mate's
placement implies.
"""

from __future__ import annotations

import numpy as np

from repro.extend.pipeline import Placement, ReadAligner
from repro.extend.sam import (
    SamRecord,
    mapped_record,
    mapq_from_scores,
    unmapped_record,
)
from repro.extend.smith_waterman import DEFAULT_SCHEME
from repro.extend.traceback import banded_sw_traceback, exact_lane
from repro.seeding.algorithm import SeedingResult
from repro.sequence.alphabet import decode, revcomp_codes
from repro.sequence.reference import Strand

FLAG_PAIRED = 0x1
FLAG_PROPER = 0x2
FLAG_MATE_UNMAPPED = 0x8
FLAG_MATE_REVERSE = 0x20
FLAG_FIRST = 0x40
FLAG_SECOND = 0x80
#: Score added to a proper pair (BWA-MEM's pairing bonus).
PROPER_BONUS = 15


class PairedAligner:
    """Pair-aware alignment over any seeding engine."""

    def __init__(self, aligner: ReadAligner, insert_mean: int = 350,
                 insert_sd: int = 50) -> None:
        self.aligner = aligner
        self.insert_mean = insert_mean
        self.insert_sd = insert_sd

    # -- candidate generation -------------------------------------------

    def _candidates(self, reads: "list[np.ndarray]",
                    seedings: "list | None" = None
                    ) -> "list[list[Placement]]":
        """Every read's placements, best first, through the aligner's
        one extension path (both mates of every pair in one batch)."""
        return [sorted(candidates, key=lambda p: -p.score)
                for candidates in self.aligner.extend_batch(reads,
                                                            seedings)]

    # -- pairing ----------------------------------------------------------

    def _is_proper(self, a: Placement, b: Placement) -> bool:
        """Illumina FR orientation: opposite strands, forward mate to the
        left, within the insert-size envelope."""
        if a.strand == b.strand:
            return False
        fwd, rev = (a, b) if a.strand is Strand.FORWARD else (b, a)
        distance = rev.position - fwd.position
        return 0 <= distance <= self.insert_mean + 4 * self.insert_sd

    def _rescue(self, read: np.ndarray,
                anchor: Placement) -> "Placement | None":
        """Search for a mate near ``anchor`` in the expected orientation."""
        reference = self.aligner.reference
        n = len(reference)
        window_span = self.insert_mean + 4 * self.insert_sd
        if anchor.strand is Strand.FORWARD:
            lo = anchor.position
            hi = min(n, anchor.position + window_span)
            target = reference.codes[lo:hi]
            query = revcomp_codes(read)
            strand = Strand.REVERSE
        else:
            lo = max(0, anchor.position + len(read) - window_span)
            hi = anchor.position + len(read)
            target = reference.codes[lo:hi]
            query = read
            strand = Strand.FORWARD
        if target.size < read.size // 2:
            return None
        # The mate may sit anywhere in the window, far from the main
        # diagonal, so the rescue search runs unbanded (the window is
        # only an insert-size long; this is what BWA's mate-SW does too).
        # That band holds every copy of the mate, so its leftmost exact
        # copy in the window is the answer when there is one.
        band = 2 * int(target.size) + 1
        traced = exact_lane(
            np.asarray(query, dtype=np.uint8).tobytes(),
            self.aligner.text_bytes, DEFAULT_SCHEME, band, lo,
            lo + int(target.size)) or banded_sw_traceback(
                query, target, DEFAULT_SCHEME, band=band)
        if not traced.is_aligned or traced.score < len(read) // 2:
            return None
        # The query handed to the kernel already runs along the forward
        # reference (reverse-strand mates were reverse-complemented), so
        # the CIGAR needs no flipping.
        position = lo + traced.target_start
        cigar_str = "".join(f"{length}{op}" for op, length in traced.cigar)
        return Placement(traced.score, strand, position, cigar_str)

    def align_pair(self, first: np.ndarray, second: np.ndarray,
                   name: str = "pair", quality1: str = "",
                   quality2: str = "",
                   seeding1: "SeedingResult | None" = None,
                   seeding2: "SeedingResult | None" = None
                   ) -> "tuple[SamRecord, SamRecord]":
        """The one-pair call of :meth:`align_pairs`."""
        rec1, rec2 = self.align_pairs([first, second], [name],
                                      [quality1, quality2],
                                      [seeding1, seeding2])
        return rec1, rec2

    def align_pairs(self, reads: "list[np.ndarray]", names: "list[str]",
                    qualities: "list[str]",
                    seedings: "list | None" = None) -> "list[SamRecord]":
        """Align interleaved ``reads`` (mate1, mate2, ...; one name per
        pair); two records per pair, in input order."""
        candidates = self._candidates(reads, seedings)
        records: "list[SamRecord]" = []
        for i, name in enumerate(names):
            records += self._pair(
                reads[2 * i], reads[2 * i + 1], candidates[2 * i],
                candidates[2 * i + 1], name, qualities[2 * i],
                qualities[2 * i + 1])
        return records

    def _pair(self, first: np.ndarray, second: np.ndarray,
              cand1: "list[Placement]", cand2: "list[Placement]",
              name: str, quality1: str, quality2: str
              ) -> "tuple[SamRecord, SamRecord]":
        if cand1 and not cand2:
            rescued = self._rescue(second, cand1[0])
            if rescued:
                cand2 = [rescued]
        elif cand2 and not cand1:
            rescued = self._rescue(first, cand2[0])
            if rescued:
                cand1 = [rescued]

        best_pair = None
        best_score = -1
        for a in cand1:
            for b in cand2:
                score = a.score + b.score
                proper = self._is_proper(a, b)
                if proper:
                    score += PROPER_BONUS
                if score > best_score:
                    best_score = score
                    best_pair = (a, b, proper)

        quality1 = quality1 or "I" * int(first.size)
        quality2 = quality2 or "I" * int(second.size)
        if best_pair is None:
            rec1 = self._one_record(first, cand1, name, quality1, None,
                                    False, FLAG_FIRST)
            rec2 = self._one_record(second, cand2, name, quality2, None,
                                    False, FLAG_SECOND)
            return rec1, rec2
        a, b, proper = best_pair
        rec1 = self._one_record(first, cand1, name, quality1, a, proper,
                                FLAG_FIRST, mate=b)
        rec2 = self._one_record(second, cand2, name, quality2, b, proper,
                                FLAG_SECOND, mate=a)
        return rec1, rec2

    def _one_record(self, read: np.ndarray, candidates: "list[Placement]",
                    name: str, quality: str,
                    placement: "Placement | None", proper: bool,
                    order_flag: int,
                    mate: "Placement | None" = None) -> SamRecord:
        if placement is None:
            record = unmapped_record(name, decode(read), quality)
            flag = record.flag | FLAG_PAIRED | order_flag
            if mate is None:
                flag |= FLAG_MATE_UNMAPPED
            return record._replace(flag=flag)
        runner_up = max((c.score for c in candidates
                         if c is not placement), default=0)
        mapq = mapq_from_scores(placement.score, runner_up, int(read.size))
        record = mapped_record(name, decode(read), quality,
                               self.aligner.reference, placement.strand,
                               placement.position, placement.cigar,
                               placement.score, mapq)
        flag = record.flag | FLAG_PAIRED | order_flag
        if proper:
            flag |= FLAG_PROPER
        if mate is None:
            flag |= FLAG_MATE_UNMAPPED
        elif mate.strand is Strand.REVERSE:
            flag |= FLAG_MATE_REVERSE
        return record._replace(flag=flag)
