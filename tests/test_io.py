"""Unit tests for FASTA/FASTQ I/O."""

import numpy as np
import pytest

from repro.sequence import (
    GenomeSimulator,
    ReadSimulator,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)
from repro.sequence.alphabet import AlphabetError
from repro.sequence.io import FastaError, count_fastq_records, iter_fastq


def test_fasta_roundtrip(tmp_path):
    refs = [GenomeSimulator(seed=i).generate(500, name=f"chr{i}")
            for i in range(3)]
    path = tmp_path / "ref.fa"
    write_fasta(path, refs, width=60)
    back = read_fasta(path)
    assert [r.name for r in back] == ["chr0", "chr1", "chr2"]
    for a, b in zip(refs, back):
        assert a.sequence == b.sequence


def test_fasta_wrapping(tmp_path):
    ref = GenomeSimulator(seed=1).generate(150)
    path = tmp_path / "ref.fa"
    write_fasta(path, [ref], width=50)
    lines = path.read_text().splitlines()
    assert lines[0].startswith(">")
    assert all(len(line) <= 50 for line in lines[1:])


def test_fasta_rejects_headerless(tmp_path):
    path = tmp_path / "bad.fa"
    path.write_text("ACGT\n")
    with pytest.raises(FastaError):
        read_fasta(path)


def test_fasta_rejects_empty_record(tmp_path):
    path = tmp_path / "bad.fa"
    path.write_text(">a\n>b\nACGT\n")
    with pytest.raises(FastaError):
        read_fasta(path)


def test_fasta_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.fa"
    path.write_text("")
    with pytest.raises(FastaError):
        read_fasta(path)


def test_fastq_roundtrip(tmp_path):
    ref = GenomeSimulator(seed=2).generate(1000)
    reads = ReadSimulator(ref, read_length=40, seed=3).simulate(10)
    path = tmp_path / "reads.fq"
    write_fastq(path, reads)
    back = read_fastq(path)
    assert len(back) == 10
    for a, b in zip(reads, back):
        assert a.name == b.name
        assert a.sequence == b.sequence
        assert a.quality == b.quality


def test_fastq_rejects_truncated(tmp_path):
    path = tmp_path / "bad.fq"
    path.write_text("@r1\nACGT\n+\n")
    with pytest.raises(FastaError):
        read_fastq(path)


def test_fastq_rejects_length_mismatch(tmp_path):
    path = tmp_path / "bad.fq"
    path.write_text("@r1\nACGT\n+\nII\n")
    with pytest.raises(FastaError):
        read_fastq(path)


def test_fastq_rejects_bad_separator(tmp_path):
    path = tmp_path / "bad.fq"
    path.write_text("@r1\nACGT\nX\nIIII\n")
    with pytest.raises(FastaError):
        read_fastq(path)


# ----------------------------------------------------------------------
# iter_fastq: the streaming parser is read_fastq, a batch at a time
# ----------------------------------------------------------------------

BATCH = 4


def _records(count, blank_every=0):
    """``count`` valid FASTQ records as text; with ``blank_every``, a
    blank line after every that many records (and one at the top)."""
    ref = GenomeSimulator(seed=6).generate(600)
    reads = ReadSimulator(ref, read_length=30, seed=7).simulate(count)
    text = "\n" if blank_every else ""
    for i, read in enumerate(reads):
        text += f"@{read.name} extra\n{read.sequence}\n+\n{read.quality}\n"
        if blank_every and (i + 1) % blank_every == 0:
            text += "\n\n"
    return text


def _same_reads(a, b):
    assert [(r.name, r.sequence, r.quality) for r in a] \
        == [(r.name, r.sequence, r.quality) for r in b]
    assert all(r.codes.dtype == np.uint8 for r in b)


@pytest.mark.parametrize("count", [1, BATCH, BATCH + 1, 3 * BATCH + 2])
@pytest.mark.parametrize("blank_every", [0, 1, 3])
def test_iter_fastq_yields_what_read_fastq_returns(tmp_path, count,
                                                   blank_every):
    path = tmp_path / "reads.fq"
    path.write_text(_records(count, blank_every))
    whole = read_fastq(path)
    assert len(whole) == count == count_fastq_records(path)
    for batch_size in (1, BATCH, 64):
        _same_reads(whole, list(iter_fastq(path, batch_size)))


_GOOD = "@ok\nACGTACGT\n+\nIIIIIIII\n"


@pytest.mark.parametrize("defect", [
    "@\nACGT\n+\nIIII\n",               # bare '@'
    "@ \nACGT\n+\nIIII\n",              # empty name
    "@r\nACGT\nX\nIIII\n",              # missing '+'
    "@r\nACGT\n+\nII\n",                # sequence/quality length mismatch
    "@r\nACGT\n+\n",                    # a 3-line tail
    "@r\nACNT\n+\nIIII\n",              # an N base
], ids=["bare-at", "empty-name", "missing-plus", "length-mismatch",
        "three-line-tail", "n-base"])
@pytest.mark.parametrize("before", [0, BATCH - 1, BATCH, 2 * BATCH + 1])
def test_iter_fastq_raises_what_read_fastq_raises(tmp_path, defect, before):
    path = tmp_path / "bad.fq"
    path.write_text(_GOOD * before + defect + _GOOD)
    with pytest.raises((FastaError, AlphabetError)) as whole:
        read_fastq(path)
    for batch_size in (1, BATCH, 64):
        parsed = []
        with pytest.raises(whole.type) as streamed:
            for read in iter_fastq(path, batch_size):
                parsed.append(read)
        assert str(streamed.value) == str(whole.value)
        if defect.count("\n") == 4:
            # Every record before the bad one was yielded first.
            assert len(parsed) == before
    if defect.count("\n") == 3:
        with pytest.raises(FastaError, match="not a multiple of 4 lines"):
            count_fastq_records(path)
    else:
        assert count_fastq_records(path) == before + 2

