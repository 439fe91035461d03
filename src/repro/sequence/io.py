"""Minimal FASTA/FASTQ reading and writing, and the :class:`Read` record.

Only the features the examples and tests need: multi-record FASTA with
wrapped lines, four-line FASTQ records.  Ambiguous bases are rejected at
encode time (see :mod:`repro.sequence.alphabet`); callers that must tolerate
them should pre-filter, matching the paper's host-side handling of
ambiguous-base reads (§V).

:class:`Read` lives here, next to ``read_fastq``, so parsing reads does
not load the simulators (:mod:`repro.sequence.simulate` re-exports it).
``iter_fastq`` parses a FASTQ file one batch of records at a time: the
CLI's run path streams reads through it (``read_fastq`` is its list).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.sequence.alphabet import decode, encode
from repro.sequence.reference import Reference, Strand


class FastaError(ValueError):
    """Raised on malformed FASTA/FASTQ input."""


class _ReadFields(NamedTuple):
    name: str
    codes: np.ndarray
    quality: str = ""
    origin: "int | None" = None
    strand: "Strand | None" = None

    @property
    def sequence(self) -> str:
        return decode(self.codes)


class Read(_ReadFields):
    """A sequencing read, parsed from FASTQ or simulated (a read-only
    ``NamedTuple``: ``name``, ``codes``, ``quality``, ``origin``,
    ``strand``).

    ``origin``/``strand`` record the ground-truth sampling location so that
    alignment examples can score themselves; real FASTQ reads parsed from
    disk leave them as ``None``.  ``len(read)`` is the read's length, not
    its field count.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return int(self.codes.size)

    @classmethod
    def _make(  # type: ignore[override]
            cls, iterable: "Iterable[object]") -> "Read":
        # The inherited ``_make`` checks the field count with ``len``.
        return cls(*iterable)


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
    return list(iter_fastq(path))


def iter_fastq(path, batch_size: int = 64) -> "Iterator[Read]":
    """Parse a FASTQ file into :class:`Read` records, reading the lines
    of ``batch_size`` records at a time, so a caller that consumes the
    reads as they come holds one batch of them, not the whole file.

    Blank lines are skipped.  A malformed record raises
    :class:`FastaError` (a non-ACGT base :class:`AlphabetError`) when
    the parse reaches it, records before it having been yielded, and so
    does a file whose non-blank lines are not a multiple of 4 -- at its
    end; :func:`count_fastq_records` finds that before any record is
    parsed.
    """
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    want = 4 * batch_size
    number = 0
    lines: "list[str]" = []
    with open(path) as handle:
        while True:
            raw = list(islice(handle, want))
            if not raw:
                break
            lines += [line.rstrip("\n") for line in raw if line != "\n"]
            usable = len(lines) - len(lines) % 4
            for i in range(0, usable, 4):
                header, seq, plus, quality = lines[i:i + 4]
                if not header.startswith("@"):
                    raise FastaError(f"FASTQ record {number} missing '@' "
                                     f"header")
                name = header[1:].split()
                if not name:
                    raise FastaError(f"FASTQ record {number} has an empty "
                                     f"name")
                if not plus.startswith("+"):
                    raise FastaError(f"FASTQ record {number} missing '+' "
                                     f"separator")
                if len(seq) != len(quality):
                    raise FastaError(f"FASTQ record {number} "
                                     f"sequence/quality length mismatch")
                yield Read(name=name[0], codes=encode(seq), quality=quality)
                number += 1
            del lines[:usable]
    if lines:
        raise _line_count_error(path)


def _line_count_error(path) -> FastaError:
    return FastaError(f"FASTQ file {path} is not a multiple of 4 lines")


#: What a blank line is in bytes: text mode reads ``\r\n`` as ``\n``.
_BLANK = (b"\n", b"\r\n")


def count_fastq_records(path) -> int:
    """The number of records in the FASTQ file at ``path``: its
    non-blank lines over 4, counted on the raw bytes without decoding a
    record.  A count that is not a multiple of 4 raises
    :func:`iter_fastq`'s error, so a caller can refuse the file before
    it parses or writes anything."""
    with open(path, "rb") as handle:
        lines = sum(1 for line in handle if line not in _BLANK)
    if lines % 4:
        raise _line_count_error(path)
    return lines // 4


def write_fastq(path, reads) -> None:
    """Write reads to a FASTQ file."""
    with open(path, "w") as handle:
        for read in reads:
            quality = read.quality or "I" * len(read)
            handle.write(f"@{read.name}\n{read.sequence}\n+\n{quality}\n")
