"""Synthetic genome and read simulators.

These stand in for the paper's GRCh38 reference and Platinum Genomes reads
(see the substitution table in DESIGN.md).  What matters for seeding
behaviour is not absolute genome size but the *repeat structure*: the heavy
tail of the k-mer hit distribution (paper Fig 8) is what drives ERT's TABLE
entries, leaf gathering costs and the k-mer reuse opportunity.  The
:class:`GenomeSimulator` therefore plants the three repeat classes the human
genome is known for:

* **interspersed repeats** -- Alu/LINE-like elements copied (with light
  mutation) to many random loci; these create high-occurrence k-mers;
* **tandem repeats** -- short motifs repeated back-to-back (micro/mini
  satellites); these create locally dense radix trees;
* **segmental duplications** -- long, low-copy, high-identity blocks; these
  create deep shared tree paths that early path compression targets.

:class:`ReadSimulator` mimics the Illumina short-read model used in §V:
fixed-length reads sampled uniformly from either strand, a configurable
fraction carrying substitution errors (the paper's cycle-accurate traces used
~80 % perfect / ~20 % non-perfect reads from ERR194147).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sequence.alphabet import revcomp_codes
from repro.sequence.io import Read
from repro.sequence.reference import Reference, Strand

#: Tandem-repeat motif lengths, inclusive range.
TANDEM_MOTIF_LEN = (2, 24)
#: Length of one segmental duplication.
SEGDUP_LENGTH = 2000
#: Point-substitution rate of each planted repeat copy.
MUTATION_RATE = 0.02


@dataclass
class GenomeSimulator:
    """Generate repeat-rich synthetic genomes.

    Parameters mirror coarse human-genome statistics: roughly half of the
    human genome is repetitive, and interspersed elements alone cover ~45 %.
    Fractions are of total genome length.
    """

    seed: int = 0
    interspersed_fraction: float = 0.30
    tandem_fraction: float = 0.08
    segdup_fraction: float = 0.07
    element_length: int = 300

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def _mutate(self, codes: np.ndarray) -> np.ndarray:
        """Apply point substitutions at :data:`MUTATION_RATE` to a copy."""
        out = codes.copy()
        mask = self._rng.random(out.size) < MUTATION_RATE
        if mask.any():
            shift = self._rng.integers(1, 4, size=int(mask.sum()), dtype=np.uint8)
            out[mask] = (out[mask] + shift) % 4
        return out

    def generate(self, length: int, name: str = "synthetic") -> Reference:
        """Generate a genome of ``length`` bp with planted repeats."""
        if length < 100:
            raise ValueError("genome length must be at least 100 bp")
        genome = self._rng.integers(0, 4, size=length, dtype=np.uint8)

        self._plant_interspersed(genome)
        self._plant_tandem(genome)
        self._plant_segdups(genome)
        return Reference(name=name, codes=genome)

    def _plant_interspersed(self, genome: np.ndarray) -> None:
        length = genome.size
        elem_len = min(self.element_length, max(20, length // 20))
        budget = int(length * self.interspersed_fraction)
        n_families = max(1, budget // (elem_len * 50))
        families = [
            self._rng.integers(0, 4, size=elem_len, dtype=np.uint8)
            for _ in range(n_families)
        ]
        placed = 0
        while placed + elem_len <= budget:
            family = families[self._rng.integers(0, len(families))]
            pos = int(self._rng.integers(0, length - elem_len))
            genome[pos:pos + elem_len] = self._mutate(family)
            placed += elem_len

    def _plant_tandem(self, genome: np.ndarray) -> None:
        length = genome.size
        budget = int(length * self.tandem_fraction)
        placed = 0
        lo, hi = TANDEM_MOTIF_LEN
        while placed < budget:
            motif_len = int(self._rng.integers(lo, hi + 1))
            copies = int(self._rng.integers(5, 40))
            total = motif_len * copies
            if total > length // 4:
                total = length // 4
                copies = max(2, total // motif_len)
                total = motif_len * copies
            if total == 0 or total > length:
                break
            motif = self._rng.integers(0, 4, size=motif_len, dtype=np.uint8)
            pos = int(self._rng.integers(0, length - total))
            genome[pos:pos + total] = np.tile(motif, copies)
            placed += total

    def _plant_segdups(self, genome: np.ndarray) -> None:
        length = genome.size
        dup_len = min(SEGDUP_LENGTH, max(100, length // 10))
        budget = int(length * self.segdup_fraction)
        placed = 0
        while placed + dup_len <= budget:
            src = int(self._rng.integers(0, length - dup_len))
            dst = int(self._rng.integers(0, length - dup_len))
            genome[dst:dst + dup_len] = self._mutate(genome[src:src + dup_len])
            placed += dup_len


@dataclass(frozen=True)
class ReadPair:
    """A simulated fragment's two reads (Illumina FR orientation)."""

    first: Read
    second: Read
    fragment_start: int
    fragment_length: int
    strand: Strand


@dataclass
class ReadSimulator:
    """Sample Illumina-like reads from a reference.

    ``error_read_fraction`` controls how many reads carry errors at all
    (paper §V: ~20 % of ERR194147 reads are non-perfect); reads selected to
    carry errors receive substitutions at ``substitution_rate`` per base,
    with at least one substitution guaranteed.
    """

    reference: Reference
    read_length: int = 101
    error_read_fraction: float = 0.2
    substitution_rate: float = 0.01
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.read_length > len(self.reference):
            raise ValueError("read length exceeds reference length")
        self._rng = np.random.default_rng(self.seed)

    def simulate(self, count: int) -> "list[Read]":
        """Generate ``count`` reads."""
        return [self._one(i) for i in range(count)]

    def simulate_coverage(self, coverage: float) -> "list[Read]":
        """Generate enough reads for the given sequencing depth.

        The paper's reuse opportunity (§III-C) exists because real runs
        cover every reference position 30-50 times; this helper sizes a
        read set by that depth instead of a raw count.
        """
        if coverage <= 0:
            raise ValueError("coverage must be positive")
        count = max(1, round(coverage * len(self.reference)
                             / self.read_length))
        return self.simulate(int(count))

    def _one(self, index: int) -> Read:
        n = len(self.reference)
        x = self.reference.both_strands
        # Sample so the read never straddles the strand junction.
        strand = Strand.FORWARD if self._rng.random() < 0.5 else Strand.REVERSE
        start_fwd = int(self._rng.integers(0, n - self.read_length + 1))
        if strand is Strand.FORWARD:
            pos = start_fwd
        else:
            pos = 2 * n - start_fwd - self.read_length
        codes = x[pos:pos + self.read_length].copy()

        is_error_read = self._rng.random() < self.error_read_fraction
        if is_error_read:
            mask = self._rng.random(codes.size) < self.substitution_rate
            if not mask.any():
                mask[self._rng.integers(0, codes.size)] = True
            shift = self._rng.integers(1, 4, size=int(mask.sum()), dtype=np.uint8)
            codes[mask] = (codes[mask] + shift) % 4

        quality = "I" * self.read_length
        return Read(
            name=f"read_{index}",
            codes=codes,
            quality=quality,
            origin=start_fwd,
            strand=strand,
        )


@dataclass
class PairedReadSimulator:
    """Sample paired-end reads in Illumina FR orientation.

    A fragment of roughly ``insert_mean`` bp is drawn from either strand;
    the first read covers the fragment's 5' end, the second read is the
    reverse complement of its 3' end, so on the forward reference the
    mates face each other (forward-read position < reverse-read position).
    """

    reference: Reference
    read_length: int = 101
    insert_mean: int = 350
    insert_sd: int = 50
    error_read_fraction: float = 0.2
    substitution_rate: float = 0.01
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.insert_mean < self.read_length:
            raise ValueError("insert size must cover one read")
        if self.insert_mean + 4 * self.insert_sd > len(self.reference):
            raise ValueError("reference too short for the insert size")
        self._rng = np.random.default_rng(self.seed)

    def simulate(self, count: int) -> "list[ReadPair]":
        return [self._one(i) for i in range(count)]

    def _mutate(self, codes: np.ndarray) -> np.ndarray:
        if self._rng.random() >= self.error_read_fraction:
            return codes
        mask = self._rng.random(codes.size) < self.substitution_rate
        if not mask.any():
            mask[self._rng.integers(0, codes.size)] = True
        out = codes.copy()
        shift = self._rng.integers(1, 4, size=int(mask.sum()),
                                   dtype=np.uint8)
        out[mask] = (out[mask] + shift) % 4
        return out

    def _one(self, index: int) -> ReadPair:
        n = len(self.reference)
        rl = self.read_length
        length = int(np.clip(self._rng.normal(self.insert_mean,
                                              self.insert_sd),
                             rl, n))
        start = int(self._rng.integers(0, n - length + 1))
        fwd = self.reference.codes[start:start + length]
        left = fwd[:rl].copy()
        right = revcomp_codes(fwd[length - rl:])
        if self._rng.random() < 0.5:
            strand = Strand.FORWARD
            first_codes, second_codes = left, right
            first_origin, first_strand = start, Strand.FORWARD
            second_origin, second_strand = start + length - rl, Strand.REVERSE
        else:
            strand = Strand.REVERSE
            first_codes, second_codes = right, left
            first_origin, first_strand = start + length - rl, Strand.REVERSE
            second_origin, second_strand = start, Strand.FORWARD
        quality = "I" * rl
        first = Read(name=f"pair_{index}/1", codes=self._mutate(first_codes),
                     quality=quality, origin=first_origin,
                     strand=first_strand)
        second = Read(name=f"pair_{index}/2",
                      codes=self._mutate(second_codes), quality=quality,
                      origin=second_origin, strand=second_strand)
        return ReadPair(first=first, second=second, fragment_start=start,
                        fragment_length=length, strand=strand)
