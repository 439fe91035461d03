"""The bidirectional FMD-index (Li, 2012) with a byte-accurate layout model.

The index is built over the double-strand text ``X = R . revcomp(R)``
terminated by a sentinel, exactly like BWA's.  Because ``X`` is its own
reverse complement, one index supports both backward extension (prepending a
character) and forward extension (appending), by tracking *bi-intervals*:

    ``BiInterval(k, l, s)`` -- ``[k, k+s)`` is the suffix-array interval of
    the pattern ``P`` and ``[l, l+s)`` the interval of ``revcomp(P)``.

Two storage layouts are modelled (paper §II-B/§II-C): BWA-MEM's highly
compressed occurrence table and BWA-MEM2's cacheline-sized checkpoint
blocks.  Every occurrence-table and suffix-array access is reported to an
attached :class:`~repro.memsim.trace.MemoryTracer`, which is how the paper's
"68.5 KB of index data per read" style measurements (Figs 1 and 12) are
reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.trace import AddressSpace, MemoryTracer
from repro.sequence.reference import Reference
from repro.fmindex.suffix_array import bwt_from_sa, suffix_array

#: Sentinel code used in the BWT array (never a valid base).
SENTINEL = 4

#: Phase tags used for traffic attribution.
PHASE_OCC = "occ_lookup"
PHASE_SA = "sa_lookup"


@dataclass(frozen=True)
class FmdConfig:
    """Storage layout of the FMD-index.

    ``occ_positions_per_block`` BWT positions share one checkpoint block of
    ``occ_block_bytes`` bytes (checkpoint counts for all four bases plus the
    2-bit-packed BWT slice).  The suffix array stores one
    ``sa_entry_bytes``-byte entry for every ``sa_sample``-th text position;
    locating a hit walks LF until it lands on a sampled position.
    """

    name: str = "bwa-mem2"
    occ_positions_per_block: int = 64
    occ_block_bytes: int = 64
    sa_sample: int = 8
    sa_entry_bytes: int = 5

    def __post_init__(self) -> None:
        if self.occ_positions_per_block <= 0:
            raise ValueError("occ_positions_per_block must be positive")
        if self.sa_sample <= 0:
            raise ValueError("sa_sample must be positive")

    @classmethod
    def bwa_mem(cls) -> "FmdConfig":
        """BWA-MEM v0.7.17-style layout: 128 positions per 64 B block,
        SA sampled every 32 positions with 4 B entries (~4.3 GB at human
        scale)."""
        return cls(name="bwa-mem", occ_positions_per_block=128,
                   occ_block_bytes=64, sa_sample=32, sa_entry_bytes=4)

    @classmethod
    def bwa_mem2(cls) -> "FmdConfig":
        """BWA-MEM2-style layout: 64 positions per 64 B checkpoint block,
        SA sampled every 8 positions with 5 B entries (~10 GB at human
        scale, §II-C)."""
        return cls(name="bwa-mem2", occ_positions_per_block=64,
                   occ_block_bytes=64, sa_sample=8, sa_entry_bytes=5)


@dataclass(frozen=True)
class BiInterval:
    """A bi-directional suffix-array interval (Li 2012).

    ``k``: start of the interval of the pattern; ``l``: start of the
    interval of its reverse complement; ``s``: shared interval size
    (the number of occurrences of the pattern in ``X``).
    """

    k: int
    l: int
    s: int

    @property
    def is_empty(self) -> bool:
        return self.s <= 0

    def swapped(self) -> "BiInterval":
        """The bi-interval of the reverse-complemented pattern."""
        return BiInterval(self.l, self.k, self.s)


class FmdIndex:
    """FMD-index over a reference's double-strand text."""

    def __init__(self, reference: Reference,
                 config: "FmdConfig | None" = None) -> None:
        self.reference = reference
        self.config = config or FmdConfig.bwa_mem2()
        self.tracer: "MemoryTracer | None" = None

        text = reference.both_strands
        self.text = text
        self.n = int(text.size)  # 2N: both strands, excluding sentinel
        sa_text = suffix_array(text)
        # Full SA in BWT-row coordinates: row 0 is the sentinel suffix.
        self.sa = np.empty(self.n + 1, dtype=np.int64)
        self.sa[0] = self.n
        self.sa[1:] = sa_text
        self.bwt = bwt_from_sa(text, sa_text, SENTINEL)
        self.sentinel_row = int(np.nonzero(self.bwt == SENTINEL)[0][0])

        # Count table C over the order $ < A < C < G < T:
        # C[c] = number of suffixes starting with a symbol smaller than base c.
        base_counts = np.bincount(text, minlength=4).astype(np.int64)
        self.counts = base_counts
        self._c_table = np.empty(4, dtype=np.int64)
        acc = 1  # the sentinel suffix
        for c in range(4):
            self._c_table[c] = acc
            acc += base_counts[c]

        # Occurrence checkpoints every `occ_positions_per_block` BWT rows:
        # per-block counts of (block, symbol) pairs, the sentinel's
        # column dropped, summed over the blocks before each row.
        ppb = self.config.occ_positions_per_block
        n_rows = self.n + 1
        self._ppb = ppb
        self.n_blocks = (n_rows + ppb - 1) // ppb
        per_block = np.bincount(
            np.arange(n_rows) // ppb * (SENTINEL + 1) + self.bwt,
            minlength=self.n_blocks * (SENTINEL + 1),
        ).reshape(self.n_blocks, SENTINEL + 1)[:, :SENTINEL]
        self._occ_cp = np.zeros((self.n_blocks + 1, 4), dtype=np.int64)
        np.cumsum(per_block, axis=0, out=self._occ_cp[1:])

        # Byte-accurate region layout for traffic accounting (Fig 1b sizes).
        self.space = AddressSpace()
        self.occ_region = self.space.allocate(
            f"fmd.{self.config.name}.occ",
            self.n_blocks * self.config.occ_block_bytes)
        n_sa_entries = (self.n + self.config.sa_sample) // self.config.sa_sample
        self.sa_region = self.space.allocate(
            f"fmd.{self.config.name}.sa",
            n_sa_entries * self.config.sa_entry_bytes)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def index_bytes(self) -> "dict[str, int]":
        """Byte footprint per component (occurrence table, suffix array)."""
        return {"occ": self.occ_region.size, "sa": self.sa_region.size,
                "total": self.occ_region.size + self.sa_region.size}

    # ------------------------------------------------------------------
    # Tracing helpers
    # ------------------------------------------------------------------

    def attach_tracer(self, tracer: "MemoryTracer | None") -> None:
        """Attach (or detach with ``None``) a memory tracer."""
        self.tracer = tracer

    def _trace_occ_blocks(self, rows: "tuple[int, ...]") -> None:
        if self.tracer is None:
            return
        seen = set()
        for row in rows:
            block = row // self._ppb
            if block in seen:
                continue
            seen.add(block)
            self.tracer.access(
                self.occ_region.base + block * self.config.occ_block_bytes,
                self.config.occ_block_bytes, PHASE_OCC, self.occ_region.name)

    def _trace_sa_entry(self, text_pos: int) -> None:
        if self.tracer is None:
            return
        entry = text_pos // self.config.sa_sample
        self.tracer.access(
            self.sa_region.base + entry * self.config.sa_entry_bytes,
            self.config.sa_entry_bytes, PHASE_SA, self.sa_region.name)

    # ------------------------------------------------------------------
    # Core FM operations
    # ------------------------------------------------------------------

    def occ(self, base: int, row: int) -> int:
        """Occurrences of ``base`` in ``bwt[0:row]`` (no traffic recorded;
        callers that model memory go through :meth:`backward_extend`)."""
        block = row // self._ppb
        start = block * self._ppb
        extra = int(np.count_nonzero(self.bwt[start:row] == base))
        return int(self._occ_cp[block, base]) + extra

    def _occ_sentinel(self, row: int) -> int:
        return 1 if self.sentinel_row < row else 0

    def full_interval(self) -> BiInterval:
        """The bi-interval of the empty pattern (every suffix)."""
        return BiInterval(0, 0, self.n + 1)

    def init_interval(self, base: int) -> BiInterval:
        """Bi-interval of a single-character pattern (no memory traffic:
        the C table is tiny and register-resident)."""
        k = int(self._c_table[base])
        l = int(self._c_table[3 - base])
        return BiInterval(k, l, int(self.counts[base]))

    def backward_extend(self, bi: BiInterval, base: int) -> BiInterval:
        """Bi-interval of ``base + P`` given the bi-interval of ``P``.

        Costs up to two occurrence-block reads (at rows ``k`` and
        ``k + s``), coalesced when both fall in one checkpoint block --
        mirroring BWA-MEM2's one-cacheline-per-boundary layout.
        """
        if bi.is_empty:
            raise ValueError("cannot extend an empty interval")
        k, l, s = bi.k, bi.l, bi.s
        self._trace_occ_blocks((k, k + s))
        occ_lo = [self.occ(c, k) for c in range(4)]
        occ_hi = [self.occ(c, k + s) for c in range(4)]
        cnt = [occ_hi[c] - occ_lo[c] for c in range(4)]
        cnt_sentinel = self._occ_sentinel(k + s) - self._occ_sentinel(k)
        new_k = int(self._c_table[base]) + occ_lo[base]
        new_l = l + cnt_sentinel + sum(cnt[y] for y in range(4) if y > base)
        return BiInterval(new_k, new_l, cnt[base])

    def forward_extend(self, bi: BiInterval, base: int) -> BiInterval:
        """Bi-interval of ``P + base`` given the bi-interval of ``P``."""
        return self.backward_extend(bi.swapped(), 3 - base).swapped()

    # ------------------------------------------------------------------
    # Pattern queries
    # ------------------------------------------------------------------

    def pattern_interval(self, codes: np.ndarray) -> BiInterval:
        """Bi-interval of an entire pattern (backward search)."""
        arr = np.asarray(codes)
        if arr.size == 0:
            return self.full_interval()
        bi = self.init_interval(int(arr[-1]))
        for c in arr[-2::-1]:
            if bi.is_empty:
                return bi
            bi = self.backward_extend(bi, int(c))
        return bi

    def locate(self, bi: BiInterval, limit: "int | None" = None) -> "list[int]":
        """Text positions (in ``X``) of the pattern with bi-interval ``bi``.

        Models BWA's sampled suffix array: each hit costs ``SA[row] mod d``
        LF steps (one occurrence-block read each) plus the final sampled-SA
        entry read.  Positions are returned sorted.
        """
        rows = range(bi.k, bi.k + bi.s)
        if limit is not None:
            rows = list(rows)[:limit]
        positions = []
        d = self.config.sa_sample
        for row in rows:
            pos = int(self.sa[row])
            if pos == self.n:  # sentinel suffix: not a real hit
                continue
            steps = pos % d
            if self.tracer is not None:
                cur = row
                for _ in range(steps):
                    # One LF step: read the checkpoint block holding `cur`.
                    self._trace_occ_blocks((cur,))
                    cur = self._lf(cur)
                self._trace_sa_entry(pos - steps)
            positions.append(pos)
        return sorted(positions)

    def _lf(self, row: int) -> int:
        """One LF-mapping step: row of the suffix one position earlier."""
        base = int(self.bwt[row])
        if base == SENTINEL:
            return 0
        return int(self._c_table[base]) + self.occ(base, row)
