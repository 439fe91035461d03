"""Fixed-length k-mer hash seeding (the §VII comparison family).

A direct-addressed table maps every k-mer code to its occurrence
positions in the double-strand text.  Seeding a read looks up each of
its windows (optionally strided) and emits one fixed-length seed per
window hit -- no maximality, no containment, no variable length.  The
point of carrying this baseline is quantitative: SMEM seeding emits far
fewer seeds for the same read ("hash-based seeding coupled with
filtration algorithms are less effective in FMD mappers ... that already
produce fewer seeds prior to seed-extension").

Traffic is traced like the other engines: one bucket-header access per
lookup plus the position-list bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.trace import AddressSpace, MemoryTracer
from repro.seeding.types import Seed, SeedingResult
from repro.sequence.alphabet import kmer_codes
from repro.sequence.reference import Reference

PHASE_BUCKET = "hash_bucket"
PHASE_POSITIONS = "hash_positions"


@dataclass(frozen=True)
class HashSeedConfig:
    """Table geometry: k-mer length, lookup stride, occurrence cap."""

    k: int = 12
    stride: int = 1
    max_positions_per_kmer: int = 500
    bucket_header_bytes: int = 8
    position_bytes: int = 4

    def __post_init__(self) -> None:
        if not 4 <= self.k <= 15:
            raise ValueError("k must be in 4..15")
        if self.stride < 1:
            raise ValueError("stride must be positive")


class HashSeedIndex:
    """Direct-addressed k-mer -> positions table over ``X``."""

    def __init__(self, reference: Reference,
                 config: "HashSeedConfig | None" = None) -> None:
        self.reference = reference
        self.config = config or HashSeedConfig()
        self.tracer: "MemoryTracer | None" = None
        text = reference.both_strands
        codes = kmer_codes(text, self.config.k)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_codes.size]))
        self.buckets: "dict[int, np.ndarray]" = {}
        total_positions = 0
        for lo, hi in zip(starts, ends):
            positions = np.sort(order[lo:hi])
            self.buckets[int(sorted_codes[lo])] = positions
            total_positions += int(positions.size)

        self.space = AddressSpace()
        self.header_region = self.space.allocate(
            "hash.headers", 4 ** self.config.k
            * self.config.bucket_header_bytes)
        self.positions_region = self.space.allocate(
            "hash.positions", total_positions * self.config.position_bytes)
        # Dense offsets into the positions region, bucket by bucket.
        self._bucket_offset = {}
        offset = 0
        for code in sorted(self.buckets):
            self._bucket_offset[code] = offset
            offset += int(self.buckets[code].size) * self.config.position_bytes

    def index_bytes(self) -> "dict[str, int]":
        return {
            "headers": self.header_region.size,
            "positions": self.positions_region.size,
            "total": self.header_region.size + self.positions_region.size,
        }

    def attach_tracer(self, tracer: "MemoryTracer | None") -> None:
        self.tracer = tracer

    def lookup(self, code: int) -> np.ndarray:
        """Positions of one k-mer, with traffic."""
        if self.tracer is not None:
            self.tracer.access(
                self.header_region.base
                + code * self.config.bucket_header_bytes,
                self.config.bucket_header_bytes, PHASE_BUCKET,
                self.header_region.name)
        positions = self.buckets.get(code)
        if positions is None:
            return np.empty(0, dtype=np.int64)
        if self.tracer is not None:
            capped = min(int(positions.size),
                         self.config.max_positions_per_kmer)
            self.tracer.access(
                self.positions_region.base + self._bucket_offset[code],
                max(1, capped * self.config.position_bytes),
                PHASE_POSITIONS, self.positions_region.name)
        return positions


class HashSeeder:
    """Window-by-window hash seeding of reads."""

    name = "hash-seed"

    def __init__(self, index: HashSeedIndex) -> None:
        self.index = index

    def seed_read(self, read: np.ndarray) -> SeedingResult:
        cfg = self.index.config
        k = cfg.k
        n = int(read.size)
        result = SeedingResult()
        for start in range(0, n - k + 1, cfg.stride):
            code = 0
            for c in read[start:start + k]:
                code = (code << 2) | int(c)
            positions = self.index.lookup(code)
            count = int(positions.size)
            if count == 0:
                continue
            if count > cfg.max_positions_per_kmer:
                hits = ()
            else:
                hits = tuple(int(p) for p in positions)
            result.smems.append(Seed(read_start=start, length=k,
                                     hits=hits, hit_count=count))
        return result
