"""DNA sequence substrate: encodings, references, simulators and file I/O.

This package provides everything the index structures sit on top of:

* :mod:`repro.sequence.alphabet` -- the 2-bit DNA alphabet, encoding between
  strings and numpy code arrays, and reverse complementation.
* :mod:`repro.sequence.reference` -- :class:`Reference`, a named reference
  genome exposing the double-strand text that all indexes are built over.
* :mod:`repro.sequence.simulate` -- synthetic genome and read simulators used
  in place of GRCh38 / Platinum Genomes (see DESIGN.md substitution table).
* :mod:`repro.sequence.io` -- minimal FASTA/FASTQ reading and writing.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sequence.alphabet import (
        BASES,
        complement_code,
        decode,
        encode,
        revcomp,
        revcomp_codes,
    )
    from repro.sequence.io import (
        Read,
        read_fasta,
        read_fastq,
        write_fasta,
        write_fastq,
    )
    from repro.sequence.multi import ContigHit, MultiReference
    from repro.sequence.reference import Reference, Strand
    from repro.sequence.simulate import (
        GenomeSimulator,
        PairedReadSimulator,
        ReadPair,
        ReadSimulator,
    )

__all__ = [
    "BASES",
    "ContigHit",
    "GenomeSimulator",
    "MultiReference",
    "PairedReadSimulator",
    "Read",
    "ReadPair",
    "ReadSimulator",
    "Reference",
    "Strand",
    "complement_code",
    "decode",
    "encode",
    "read_fasta",
    "read_fastq",
    "revcomp",
    "revcomp_codes",
    "write_fasta",
    "write_fastq",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sequence.alphabet": ("BASES", "complement_code", "decode",
                                "encode", "revcomp", "revcomp_codes"),
    "repro.sequence.io": ("Read", "read_fasta", "read_fastq", "write_fasta",
                          "write_fastq"),
    "repro.sequence.multi": ("ContigHit", "MultiReference"),
    "repro.sequence.reference": ("Reference", "Strand"),
    "repro.sequence.simulate": ("GenomeSimulator", "PairedReadSimulator",
                                "ReadPair", "ReadSimulator"),
})
