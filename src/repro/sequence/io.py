"""Minimal FASTA/FASTQ reading and writing, and the :class:`Read` record.

Only the features the examples and tests need: multi-record FASTA with
wrapped lines, four-line FASTQ records.  Ambiguous bases are rejected at
encode time (see :mod:`repro.sequence.alphabet`); callers that must tolerate
them should pre-filter, matching the paper's host-side handling of
ambiguous-base reads (§V).

:class:`Read` lives here, next to ``read_fastq``, so parsing reads does
not load the simulators (:mod:`repro.sequence.simulate` re-exports it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sequence.alphabet import decode, encode
from repro.sequence.reference import Reference, Strand


class FastaError(ValueError):
    """Raised on malformed FASTA/FASTQ input."""


@dataclass(frozen=True)
class Read:
    """A sequencing read, parsed from FASTQ or simulated.

    ``origin``/``strand`` record the ground-truth sampling location so that
    alignment examples can score themselves; real FASTQ reads parsed from
    disk leave them as ``None``.
    """

    name: str
    codes: np.ndarray
    quality: str = ""
    origin: "int | None" = None
    strand: "Strand | None" = None

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def sequence(self) -> str:
        return decode(self.codes)


def read_fasta(path) -> "list[Reference]":
    """Parse a FASTA file into a list of :class:`Reference` records."""
    records = []
    name = None
    chunks: "list[str]" = []
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records.append(_make_reference(name, chunks))
                name = line[1:].split()[0] if len(line) > 1 else ""
                chunks = []
            else:
                if name is None:
                    raise FastaError("sequence data before first FASTA header")
                chunks.append(line)
    if name is not None:
        records.append(_make_reference(name, chunks))
    if not records:
        raise FastaError(f"no FASTA records in {path}")
    return records


def _make_reference(name: str, chunks: "list[str]") -> Reference:
    seq = "".join(chunks)
    if not seq:
        raise FastaError(f"FASTA record {name!r} has no sequence")
    return Reference.from_string(seq, name=name or "unnamed")


def write_fasta(path, references, width: int = 70) -> None:
    """Write references to a FASTA file with lines wrapped at ``width``."""
    with open(path, "w") as handle:
        for ref in references:
            handle.write(f">{ref.name}\n")
            seq = ref.sequence
            for i in range(0, len(seq), width):
                handle.write(seq[i:i + width] + "\n")


def read_fastq(path) -> "list[Read]":
    """Parse a FASTQ file into a list of :class:`Read` records."""
    reads = []
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    lines = [line for line in lines if line]
    if len(lines) % 4 != 0:
        raise FastaError(f"FASTQ file {path} is not a multiple of 4 lines")
    for i in range(0, len(lines), 4):
        header, seq, plus, quality = lines[i:i + 4]
        if not header.startswith("@"):
            raise FastaError(f"FASTQ record {i // 4} missing '@' header")
        name = header[1:].split()
        if not name:
            raise FastaError(f"FASTQ record {i // 4} has an empty name")
        if not plus.startswith("+"):
            raise FastaError(f"FASTQ record {i // 4} missing '+' separator")
        if len(seq) != len(quality):
            raise FastaError(
                f"FASTQ record {i // 4} sequence/quality length mismatch")
        reads.append(Read(name=name[0], codes=encode(seq),
                          quality=quality))
    return reads


def write_fastq(path, reads) -> None:
    """Write reads to a FASTQ file."""
    with open(path, "w") as handle:
        for read in reads:
            quality = read.quality or "I" * len(read)
            handle.write(f"@{read.name}\n{read.sequence}\n+\n{quality}\n")
