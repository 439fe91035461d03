"""The complete read-alignment pipeline: seed -> chain -> extend.

:class:`ReadAligner` runs the paper's whole flow over any seeding engine:
three-round seeding (:mod:`repro.seeding.algorithm`), colinear chaining,
then banded extension of the best chains to pick the final alignment
position.  Besides producing alignments, it records the per-read extension
workload that the SeedEx model (Table VI) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import telemetry
from repro.extend.chaining import Chain, chain_seeds
from repro.extend.sam import (
    SamRecord,
    mapped_record,
    mapq_from_scores,
    unmapped_record,
)
from repro.extend.smith_waterman import (
    DEFAULT_SCHEME,
    ScoringScheme,
    SwWorkspace,
)
from repro.extend.traceback import banded_sw_traceback, exact_lane
from repro.seeding.algorithm import SeedingParams, SeedingResult, seed_read
from repro.seeding.engine import SeedingEngine
from repro.sequence.alphabet import decode
from repro.sequence.reference import Reference, Strand


@dataclass(frozen=True)
class Placement:
    """One candidate placement of one read: the score, strand, forward
    coordinate of the first aligned reference base and CIGAR (soft clips
    included) of one traced lane."""

    score: int
    strand: Strand
    position: int
    cigar: str


@dataclass(frozen=True)
class Alignment:
    """A read's final alignment (forward-strand coordinates).

    ``position`` is where the read's first base falls on the forward
    strand: the placement's position minus its leading soft clip.
    """

    read_name: str
    strand: Strand
    position: int
    score: int

    @property
    def is_mapped(self) -> bool:
        return self.score > 0


@dataclass
class ExtensionWorkload:
    """Per-read extension demand as the SeedEx model (Table VI) sees it:
    every lane is one edit check, and the lanes that are not exact
    copies go on to banded SW; rows are lanes x read length."""

    sw_extensions: int = 0
    sw_rows_total: int = 0
    edit_checks: int = 0
    edit_rows_total: int = 0


@dataclass
class AlignmentOutcome:
    """Alignment plus the measured extension workload for one read."""

    alignment: "Alignment | None"
    n_seeds: int
    n_chains: int
    workload: ExtensionWorkload


class ReadAligner:
    """Seed-and-extend aligner over any :class:`SeedingEngine`."""

    def __init__(self, reference: Reference, engine: SeedingEngine,
                 params: "SeedingParams | None" = None,
                 scheme: "ScoringScheme | None" = None,
                 band: int = 41, max_chains_extended: int = 8,
                 sw_batch: "Callable | None" = None,
                 tb_batch: "Callable | None" = None) -> None:
        self.reference = reference
        self.engine = engine
        self.params = params or SeedingParams()
        self.scheme = scheme or DEFAULT_SCHEME
        self.band = band
        self.max_chains_extended = max_chains_extended
        #: Optional batched Smith-Waterman kernel with the calling
        #: convention of :func:`repro.kernels.traceback.
        #: batched_sw_traceback`.  When set, every lane of
        #: :meth:`extend_batch` that is not an exact lane
        #: (:meth:`_trace_lanes`) runs on it: the surviving chains of
        #: every read of a batch are traced in one kernel call per read
        #: length instead of one scalar traceback per chain -- same
        #: results.  Injected (by the parallel scheduler under
        #: ``--kernels vector``) because the extend layer sits below
        #: ``repro.kernels`` in the import DAG.  ``sw_batch`` is a second
        #: name for it, kept only for ``benchmarks/pipeline/layers.py``,
        #: which passes both (``tb_batch`` wins); it goes when ROADMAP
        #: 1(a) re-points that file.
        self.tb_batch = tb_batch if tb_batch is not None else sw_batch
        self._text = reference.both_strands
        #: The same text as one ``bytes``, which :func:`exact_lane`
        #: searches in place (here and in mate rescue).
        self.text_bytes = self._text.tobytes()
        # One workspace per aligner: the batched kernel's planes are
        # reused across every sweep instead of allocated per call.
        self._sw_workspace = SwWorkspace()
        #: Per-read counters of the most recent :meth:`extend_batch`,
        #: one dict per read in read order.  :meth:`align` builds its
        #: :class:`ExtensionWorkload` from them, and the parallel
        #: scheduler folds them into the reads' exemplar records.
        self.read_stats: "list[dict[str, int]]" = []

    def align(self, read: np.ndarray, name: str = "read",
              seeding: "SeedingResult | None" = None) -> AlignmentOutcome:
        """Align one read: the best of its :meth:`extend_batch`
        placements -- the first of the highest score in chain order, the
        tie-break :meth:`align_sam_batch` uses -- and the read's
        extension workload.

        ``seeding`` short-circuits the three seeding rounds with a
        precomputed result; output is identical either way.
        """
        placements = self.extend_batch([read], [seeding])[0]
        row = self.read_stats[0]
        n = int(read.size)
        lanes = row["sw_extensions"] + row["exact_lanes"]
        workload = ExtensionWorkload(row["sw_extensions"],
                                     row["sw_extensions"] * n, lanes,
                                     lanes * n)
        best: "Alignment | None" = None
        if placements:
            top = max(placements, key=lambda p: p.score)
            clip, _, _ = top.cigar.partition("S")  # the leading clip
            best = Alignment(name, top.strand, top.position - (
                int(clip) if clip.isdigit() else 0), top.score)
        return AlignmentOutcome(alignment=best, n_seeds=row["seeds"],
                                n_chains=row["chains"], workload=workload)

    def _window(self, read: np.ndarray, chain: Chain) \
            -> "tuple[int, np.ndarray] | None":
        """``(ref_begin, window)``: the stretch of the double-strand text
        the whole read would occupy if the chain's diagonal is right,
        padded by half a band; ``None`` when it is too short to bother
        extending."""
        n = int(read.size)
        ref_begin = max(0, chain.ref_start - chain.read_start
                        - self.band // 2)
        window = self._text[ref_begin:ref_begin + n + self.band]
        if window.size < n // 2:
            return None
        return ref_begin, window

    # ------------------------------------------------------------------
    # SAM emission (traceback path)
    # ------------------------------------------------------------------

    def align_sam(self, read: np.ndarray, name: str = "read",
                  quality: str = "",
                  seeding: "SeedingResult | None" = None) -> SamRecord:
        """Align one read and emit a SAM record with a real CIGAR: the
        one-read call of :meth:`align_sam_batch`."""
        return self.align_sam_batch([read], [name], [quality],
                                    [seeding])[0]

    def align_sam_batch(self, reads: "list[np.ndarray]",
                        names: "list[str]", qualities: "list[str]",
                        seedings: "list | None" = None
                        ) -> "list[SamRecord]":
        """One SAM record per read, in read order.

        The best and runner-up chains are both extended with the
        traceback kernel so mapping quality can reflect uniqueness.
        ``seedings`` injects precomputed seeding results (the parallel
        scheduler seeds a batch before extending it); the records are
        identical either way.
        """
        records = []
        for read, name, quality, candidates in zip(
                reads, names, qualities,
                self.extend_batch(reads, seedings)):
            quality = quality or "I" * int(read.size)
            if not candidates:
                records.append(unmapped_record(name, decode(read), quality))
                continue
            candidates.sort(key=lambda c: -c.score)
            best = candidates[0]
            runner_up = candidates[1].score if len(candidates) > 1 else 0
            mapq = mapq_from_scores(best.score, runner_up, int(read.size))
            records.append(mapped_record(
                name, decode(read), quality, self.reference, best.strand,
                best.position, best.cigar, best.score, mapq))
        return records

    def extend_batch(self, reads: "list[np.ndarray]",
                     seedings: "list | None" = None,
                     max_chains: "int | None" = None
                     ) -> "list[list[Placement]]":
        """Chain, window and trace every read of a batch: the one
        extension path behind :meth:`align`, the SAM and the paired-end
        entry points.

        Returns each read's placements in chain order and leaves one
        :attr:`read_stats` row per read.  The unit of extension work is
        the *lane* -- one (read, window) pair -- so the windows of all
        reads are set up first (in read, then chain order: telemetry and
        :attr:`read_stats` come out as a read-by-read loop would leave
        them), traced together, and finalized in the same order.
        """
        limit = self.max_chains_extended if max_chains is None \
            else max_chains
        lanes: "list[tuple[int, int, np.ndarray]]" = []
        candidates: "list[list[Placement]]" = [[] for _ in reads]
        with telemetry.span("align"):
            seeds = [(seeding if seeding is not None
                      else seed_read(self.engine, read, self.params)
                      ).all_seeds
                     for read, seeding
                     in zip(reads, seedings or [None] * len(reads))]
            with telemetry.span("chain"):
                chains = [chain_seeds(read_seeds) for read_seeds in seeds]
            self.read_stats = [
                {"seeds": len(read_seeds),
                 "seed_hits": sum(s.hit_count for s in read_seeds),
                 "chains": len(read_chains),
                 "sw_extensions": 0, "sw_cells": 0, "exact_lanes": 0}
                for read_seeds, read_chains in zip(seeds, chains)]
            with telemetry.span("extend"):
                for i, read in enumerate(reads):
                    for chain in chains[i][:limit]:
                        placed = self._window(read, chain)
                        if placed is not None:
                            telemetry.observe("align.window_bp",
                                              int(placed[1].size))
                            lanes.append((i, *placed))
                for (i, ref_begin, _), traced in zip(
                        lanes, self._trace_lanes(reads, lanes)):
                    candidate = self._finalize_trace(traced, ref_begin)
                    if candidate is not None:
                        candidates[i].append(candidate)
            if telemetry.enabled():
                for row, found in zip(self.read_stats, candidates):
                    telemetry.count("align.reads")
                    telemetry.count("align.reads_mapped", int(bool(found)))
                    telemetry.count("align.chains", row["chains"])
                    telemetry.count("align.chains_extended",
                                    min(row["chains"], limit))
                    telemetry.observe("align.seeds_per_read", row["seeds"])
                    telemetry.observe("align.chains_per_read",
                                      row["chains"])
        return candidates

    def _finalize_trace(self, traced, ref_begin: int) \
            -> "Placement | None":
        """Map one traced window alignment back to forward-strand SAM
        coordinates; ``None`` for unaligned or off-reference hits."""
        if not traced.is_aligned:
            return None
        ref_len = traced.target_end - traced.target_start
        hit = self.reference.to_forward(ref_begin + traced.target_start,
                                        ref_len)
        if hit is None:
            return None
        cigar = traced.cigar
        if hit.strand is Strand.REVERSE:
            # Forward-strand coordinates run opposite to the walk over
            # the reverse-complement half of X: flip the CIGAR.
            cigar = tuple(reversed(cigar))
        cigar_str = "".join(f"{length}{op}" for op, length in cigar)
        return Placement(traced.score, hit.strand, hit.start, cigar_str)

    def _trace_lanes(self, reads: "list[np.ndarray]",
                     lanes: "list[tuple[int, int, np.ndarray]]"):
        """Trace every ``(read index, ref_begin, window)`` lane.

        A lane whose read occurs exactly inside its band is answered by
        :func:`exact_lane` (a ``bytes.find`` over the text, provably the
        DP's result) and runs no DP.  The rest: without
        :attr:`tb_batch`, one scalar traceback per lane (the
        byte-identity oracle), produced lazily so the caller finalizes
        each lane as it is traced instead of holding a batch's worth of
        tracebacks.  With it, lanes are bucketed by read length -- a
        sweep needs one query length -- and each bucket goes to the
        kernel as one ``(lanes, m)`` query block, whatever reads its
        lanes came from.  The :attr:`read_stats` rows count the DP lanes
        (``sw_extensions``, with their ``sw_cells``) and the exact ones
        (``exact_lanes``), and so do the ``align.*`` counters.
        """
        queries = [np.asarray(read, dtype=np.uint8).tobytes()
                   for read in reads]
        traced = [exact_lane(queries[i], self.text_bytes, self.scheme,
                             self.band, ref_begin, ref_begin + window.size)
                  for i, ref_begin, window in lanes]
        observed = telemetry.enabled()
        for (i, _, window), hit in zip(lanes, traced):
            key = "sw_extensions" if hit is None else "exact_lanes"
            self.read_stats[i][key] += 1
            if hit is None:
                self.read_stats[i]["sw_cells"] += int(window.size) \
                    * self.band
            if observed:
                telemetry.count("align." + key)
        if self.tb_batch is None:
            return (hit or banded_sw_traceback(reads[i], window,
                                               self.scheme, self.band)
                    for (i, _, window), hit in zip(lanes, traced))
        buckets: "dict[int, list[int]]" = {}
        for slot, hit in enumerate(traced):
            if hit is None:
                buckets.setdefault(int(reads[lanes[slot][0]].size),
                                   []).append(slot)
        for slots in buckets.values():
            block = np.stack([reads[lanes[slot][0]] for slot in slots])
            for slot, result in zip(slots, self.tb_batch(
                    block, [lanes[slot][2] for slot in slots],
                    self.scheme, self.band,
                    workspace=self._sw_workspace)):
                traced[slot] = result
        return traced
