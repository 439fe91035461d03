"""Make one workload's FASTA/FASTQ inputs and truth sidecar: the fixed
reference genome, and reads drawn with ``--seed``.

Run as a subprocess of ``run.py`` (it imports numpy and ``repro``; the
orchestrator must not -- see ``workloads.py``).  The program under test
receives only ``ref.fa`` / ``reads.fq`` / ``warm.fq``; ``truth.tsv``
(name, origin, strand) stays with the benchmark.
"""

from __future__ import annotations

import argparse

from repro.sequence import GenomeSimulator, ReadSimulator
from repro.sequence.io import write_fasta, write_fastq
from repro.sequence.reference import Strand
from repro.sequence.simulate import PairedReadSimulator

from workloads import (
    ERROR_READ_FRACTION,
    READ_LENGTH,
    REFERENCE_SEED,
    SUBSTITUTION_RATE,
    InputPaths,
)


def make_inputs(paths: InputPaths, seed: int, genome_len: int, kind: str,
                count: int, warm: int) -> None:
    """``count`` reads.  ``kind`` "seed"/"align": single-end, one
    stream (so ``align_se_vec_w2`` gets ``align_se_vec_w1``'s reads);
    "pairs": interleaved mates, each counted."""
    reference = GenomeSimulator(seed=REFERENCE_SEED).generate(genome_len)
    write_fasta(paths.reference, [reference])
    if kind == "pairs":
        pairs = PairedReadSimulator(
            reference, read_length=READ_LENGTH,
            error_read_fraction=ERROR_READ_FRACTION,
            substitution_rate=SUBSTITUTION_RATE, seed=seed + 2,
        ).simulate(count // 2)
        reads = [mate for pair in pairs
                 for mate in (pair.first, pair.second)]
        warm -= warm % 2
    else:
        reads = ReadSimulator(
            reference, read_length=READ_LENGTH,
            error_read_fraction=ERROR_READ_FRACTION,
            substitution_rate=SUBSTITUTION_RATE, seed=seed + 1,
        ).simulate(count)
    write_fastq(paths.reads, reads)
    write_fastq(paths.warm_reads, reads[:warm])
    with open(paths.truth, "w") as handle:
        for read in reads:
            strand = "+" if read.strand is Strand.FORWARD else "-"
            handle.write(f"{read.name}\t{read.origin}\t{strand}\n")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--genome-len", type=int, required=True)
    parser.add_argument("--kind", choices=("seed", "align", "pairs"),
                        required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--warm", type=int, required=True)
    args = parser.parse_args(argv)
    make_inputs(InputPaths(args.dir), args.seed, args.genome_len,
                args.kind, args.count, args.warm)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
