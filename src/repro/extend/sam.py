"""Minimal SAM output for the alignment pipeline.

Produces spec-conformant single-end records: header (``@HD``/``@SQ``/
``@PG``), FLAG with the reverse-strand bit, 1-based POS, CIGAR from the
traceback kernel, and a simple MAPQ model (higher when the best chain
dominates the runner-up).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sequence.reference import Reference, Strand
from repro.sequence.alphabet import revcomp

FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10


class SamRecord(NamedTuple):
    """One alignment line."""

    qname: str
    flag: int
    rname: str
    pos: int  # 1-based; 0 when unmapped
    mapq: int
    cigar: str
    seq: str
    qual: str
    tags: "tuple[str, ...]" = ()

    def to_line(self) -> str:
        fields = [self.qname, str(self.flag), self.rname, str(self.pos),
                  str(self.mapq), self.cigar or "*", "*", "0", "0",
                  self.seq, self.qual or "*"]
        fields.extend(self.tags)
        return "\t".join(fields)


def sam_header(reference: Reference) -> "list[str]":
    return [
        "@HD\tVN:1.6\tSO:unknown",
        f"@SQ\tSN:{reference.name}\tLN:{len(reference)}",
        "@PG\tID:repro-ert\tPN:repro-ert",
    ]


def unmapped_record(name: str, sequence: str, quality: str = "") -> SamRecord:
    return SamRecord(qname=name, flag=FLAG_UNMAPPED, rname="*", pos=0,
                     mapq=0, cigar="", seq=sequence, qual=quality)


def mapped_record(name: str, sequence: str, quality: str,
                  reference: Reference, strand: Strand, position: int,
                  cigar: str, score: int, mapq: int) -> SamRecord:
    flag = FLAG_REVERSE if strand is Strand.REVERSE else 0
    seq = revcomp(sequence) if strand is Strand.REVERSE else sequence
    qual = quality[::-1] if strand is Strand.REVERSE else quality
    return SamRecord(
        qname=name, flag=flag, rname=reference.name, pos=position + 1,
        mapq=mapq, cigar=cigar, seq=seq, qual=qual,
        tags=(f"AS:i:{score}",))


def mapq_from_scores(best: int, runner_up: int, read_len: int) -> int:
    """A simple uniqueness-based mapping quality in 0..60."""
    if best <= 0:
        return 0
    gap = max(0, best - max(runner_up, 0))
    return min(60, int(60 * gap / max(read_len, 1)))


def write_sam_header(handle, reference: Reference) -> None:
    """Write the header lines of a SAM file to the open text ``handle``."""
    handle.writelines([line + "\n" for line in sam_header(reference)])


def write_sam_records(handle, records) -> None:
    """Write one line per record to the open text ``handle``; a streaming
    writer calls it once per batch after :func:`write_sam_header`."""
    handle.writelines([record.to_line() + "\n" for record in records])


def write_sam(path, reference: Reference, records) -> None:
    with open(path, "w") as handle:
        write_sam_header(handle, reference)
        write_sam_records(handle, records)
