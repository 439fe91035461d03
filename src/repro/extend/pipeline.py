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
    banded_edit_distance,
    banded_smith_waterman,
)
from repro.extend.traceback import banded_sw_traceback
from repro.seeding.algorithm import SeedingParams, SeedingResult, seed_read
from repro.seeding.engine import SeedingEngine
from repro.sequence.alphabet import decode
from repro.sequence.reference import Reference, Strand


@dataclass(frozen=True)
class Alignment:
    """A read's final alignment (forward-strand coordinates)."""

    read_name: str
    strand: Strand
    position: int
    score: int
    chain_score: int

    @property
    def is_mapped(self) -> bool:
        return self.score > 0


@dataclass
class ExtensionWorkload:
    """Per-read extension demand measured from the functional pipeline."""

    sw_extensions: int = 0
    sw_rows_total: int = 0
    edit_checks: int = 0
    edit_rows_total: int = 0

    def add_sw(self, query_len: int) -> None:
        self.sw_extensions += 1
        self.sw_rows_total += query_len

    def add_edit(self, query_len: int) -> None:
        self.edit_checks += 1
        self.edit_rows_total += query_len


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
                 edit_check_first: bool = True,
                 sw_batch: "Callable | None" = None,
                 tb_batch: "Callable | None" = None) -> None:
        self.reference = reference
        self.engine = engine
        self.params = params or SeedingParams()
        self.scheme = scheme or DEFAULT_SCHEME
        self.band = band
        self.max_chains_extended = max_chains_extended
        self.edit_check_first = edit_check_first
        #: Optional batched extension kernel with the calling convention
        #: of :func:`repro.kernels.sw.batched_banded_sw`.  When set,
        #: :meth:`align` extends all of a read's SW-bound chains in one
        #: wavefront call instead of one row-wise SW per chain -- same
        #: scores, same coordinates.  Injected by callers because the
        #: extend layer sits below ``repro.kernels`` in the import DAG
        #: (the parallel scheduler does not: its SAM paths never reach
        #: :meth:`align`).
        self.sw_batch = sw_batch
        #: Optional batched *traceback* kernel with the calling
        #: convention of :func:`repro.kernels.traceback.
        #: batched_sw_traceback`.  When set, :meth:`extend_batch` (the
        #: SAM paths and the paired candidate sweep) traces the
        #: surviving chains of every read of a batch in one kernel
        #: call per read length instead of one scalar traceback per
        #: chain -- same records byte for byte.  Injected (by the
        #: parallel scheduler under ``--kernels vector``) for the same
        #: layering reason as ``sw_batch``.
        self.tb_batch = tb_batch
        self._text = reference.both_strands
        # One workspace per aligner: the SW kernel's row buffers are
        # reused across every extension instead of allocated per call.
        self._sw_workspace = SwWorkspace()
        #: Per-read counters of the most recent :meth:`extend_batch`,
        #: one dict per read in read order, populated only while
        #: telemetry is enabled.  The parallel scheduler folds these
        #: into the reads' exemplar records.
        self.read_stats: "list[dict[str, int]]" = []

    def align(self, read: np.ndarray, name: str = "read",
              seeding: "SeedingResult | None" = None) -> AlignmentOutcome:
        """Align one read; returns the best-scoring chain extension.

        ``seeding`` short-circuits the three seeding rounds with a
        precomputed result (how the batched kernel path feeds a whole
        batch of reads seeded at once); output is identical either way.
        """
        with telemetry.span("align"):
            result = seeding if seeding is not None \
                else seed_read(self.engine, read, self.params)
            seeds = result.all_seeds
            with telemetry.span("chain"):
                chains = chain_seeds(seeds)
            workload = ExtensionWorkload()
            best: "Alignment | None" = None
            with telemetry.span("extend"):
                if self.sw_batch is not None:
                    best = self._extend_chains_batched(
                        read, chains[:self.max_chains_extended], name,
                        workload)
                else:
                    for chain in chains[:self.max_chains_extended]:
                        candidate = self._extend_chain(read, chain, name,
                                                       workload)
                        if candidate is None:
                            continue
                        if best is None or candidate.score > best.score:
                            best = candidate
            self._record_read_metrics(len(seeds), len(chains),
                                      mapped=best is not None)
        return AlignmentOutcome(alignment=best, n_seeds=len(seeds),
                                n_chains=len(chains), workload=workload)

    def _record_read_metrics(self, n_seeds: int, n_chains: int,
                             mapped: bool,
                             limit: "int | None" = None) -> None:
        if not telemetry.enabled():
            return
        telemetry.count("align.reads")
        telemetry.count("align.reads_mapped", int(mapped))
        telemetry.count("align.chains", n_chains)
        telemetry.count("align.chains_extended",
                        min(n_chains, limit or self.max_chains_extended))
        telemetry.observe("align.seeds_per_read", n_seeds)
        telemetry.observe("align.chains_per_read", n_chains)

    def _extend_chain(self, read: np.ndarray, chain: Chain, name: str,
                      workload: ExtensionWorkload) -> "Alignment | None":
        n = int(read.size)
        # Window of the double-strand text the whole read would occupy if
        # the chain's diagonal is right, padded by half a band.
        ref_begin = chain.ref_start - chain.read_start - self.band // 2
        ref_begin = max(0, ref_begin)
        window_len = n + self.band
        window = self._text[ref_begin:ref_begin + window_len]
        if window.size < n // 2:
            return None
        telemetry.observe("align.window_bp", int(window.size))

        score = None
        if self.edit_check_first:
            # The edit-distance unit clears near-perfect candidates fast.
            workload.add_edit(n)
            telemetry.count("align.edit_checks")
            dist = banded_edit_distance(read, window[:n], band=self.band)
            if dist is not None and dist <= 2:
                score = (n - dist) * self.scheme.match + dist * \
                    self.scheme.mismatch
                end_pos = ref_begin
        if score is None:
            workload.add_sw(n)
            telemetry.count("align.sw_extensions")
            sw = banded_smith_waterman(read, window, self.scheme, self.band,
                                       workspace=self._sw_workspace)
            if not sw.is_aligned:
                return None
            score = sw.score
            end_pos = ref_begin + sw.target_end - sw.query_end
        hit = self.reference.to_forward(max(0, end_pos), min(
            n, 2 * len(self.reference) - max(0, end_pos)))
        if hit is None:
            return None
        return Alignment(read_name=name, strand=hit.strand,
                         position=hit.start, score=int(score),
                         chain_score=chain.score)

    def _extend_chains_batched(self, read: np.ndarray,
                               chains: "list[Chain]", name: str,
                               workload: ExtensionWorkload) \
            -> "Alignment | None":
        """All chains of one read through the injected wavefront kernel.

        Two passes keep this score-identical to the serial loop: the
        first runs each chain's window setup and edit-distance shortcut
        in chain order (so workload/telemetry accounting interleaves the
        same way), queueing the windows that need full SW; one batched
        call resolves those; the second pass finalizes candidates in
        chain order, preserving the strict-improvement tie-break.
        """
        n = int(read.size)
        entries: "list[list]" = []  # [chain, ref_begin, score, end_pos]
        pending: "list[int]" = []
        windows: "list[np.ndarray]" = []
        for chain in chains:
            ref_begin = max(0, chain.ref_start - chain.read_start
                            - self.band // 2)
            window = self._text[ref_begin:ref_begin + n + self.band]
            if window.size < n // 2:
                continue
            telemetry.observe("align.window_bp", int(window.size))
            score = None
            end_pos = None
            if self.edit_check_first:
                workload.add_edit(n)
                telemetry.count("align.edit_checks")
                dist = banded_edit_distance(read, window[:n],
                                            band=self.band)
                if dist is not None and dist <= 2:
                    score = (n - dist) * self.scheme.match + dist * \
                        self.scheme.mismatch
                    end_pos = ref_begin
            if score is None:
                workload.add_sw(n)
                telemetry.count("align.sw_extensions")
                pending.append(len(entries))
                windows.append(window)
            entries.append([chain, ref_begin, score, end_pos])
        if windows:
            results = self.sw_batch(read, windows, self.scheme, self.band,
                                    workspace=self._sw_workspace)
            for slot, sw in zip(pending, results):
                if sw.is_aligned:
                    entries[slot][2] = sw.score
                    entries[slot][3] = (entries[slot][1] + sw.target_end
                                        - sw.query_end)
        best: "Alignment | None" = None
        for chain, _ref_begin, score, end_pos in entries:
            if score is None:
                continue
            hit = self.reference.to_forward(max(0, end_pos), min(
                n, 2 * len(self.reference) - max(0, end_pos)))
            if hit is None:
                continue
            candidate = Alignment(read_name=name, strand=hit.strand,
                                  position=hit.start, score=int(score),
                                  chain_score=chain.score)
            if best is None or candidate.score > best.score:
                best = candidate
        return best

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
            candidates.sort(key=lambda c: -c[0])
            best_score, strand, position, cigar = candidates[0]
            runner_up = candidates[1][0] if len(candidates) > 1 else 0
            mapq = mapq_from_scores(best_score, runner_up, int(read.size))
            records.append(mapped_record(
                name, decode(read), quality, self.reference, strand,
                position, cigar, best_score, mapq))
        return records

    def align_sam_multi(self, read: np.ndarray, name: str = "read",
                        quality: str = "", max_secondary: int = 3,
                        seeding: "SeedingResult | None" = None
                        ) -> "list[SamRecord]":
        """Like :meth:`align_sam` but also emits secondary records
        (FLAG 0x100) for distinct runner-up placements, as read aligners
        do for multi-mapping reads in repeats."""
        from dataclasses import replace as _replace
        candidates = self.extend_batch([read], [seeding])[0]
        quality = quality or "I" * int(read.size)
        if not candidates:
            return [unmapped_record(name, decode(read), quality)]
        candidates.sort(key=lambda c: -c[0])
        best_score = candidates[0][0]
        runner_up = candidates[1][0] if len(candidates) > 1 else 0
        records = []
        seen_positions = set()
        for rank, (score, strand, position, cigar) in enumerate(candidates):
            if (strand, position) in seen_positions:
                continue
            seen_positions.add((strand, position))
            if rank == 0:
                mapq = mapq_from_scores(best_score, runner_up,
                                        int(read.size))
                records.append(mapped_record(name, decode(read), quality,
                                             self.reference, strand,
                                             position, cigar, score, mapq))
            elif len(records) <= max_secondary:
                rec = mapped_record(name, decode(read), quality,
                                    self.reference, strand, position,
                                    cigar, score, 0)
                records.append(_replace(rec, flag=rec.flag | 0x100))
        return records

    def extend_batch(self, reads: "list[np.ndarray]",
                     seedings: "list | None" = None,
                     max_chains: "int | None" = None) -> "list[list]":
        """Chain, window and trace every read of a batch: the one
        traceback path behind the SAM and paired-end entry points.

        Returns each read's candidates ``(score, strand, position,
        cigar)`` in chain order.  The unit of extension work is the
        *lane* -- one (read, window) pair -- so the windows of all reads
        are set up first (in read, then chain order: telemetry and
        :attr:`read_stats` come out as a read-by-read loop would leave
        them), traced together, and finalized in the same order.
        """
        limit = self.max_chains_extended if max_chains is None \
            else max_chains
        observed = telemetry.enabled()
        self.read_stats = []
        lanes: "list[tuple[int, int, np.ndarray]]" = []
        candidates: "list[list]" = [[] for _ in reads]
        with telemetry.span("align"):
            seeds = [(seeding if seeding is not None
                      else seed_read(self.engine, read, self.params)
                      ).all_seeds
                     for read, seeding
                     in zip(reads, seedings or [None] * len(reads))]
            with telemetry.span("chain"):
                chains = [chain_seeds(read_seeds) for read_seeds in seeds]
            with telemetry.span("extend"):
                for i, read in enumerate(reads):
                    if observed:
                        self.read_stats.append({
                            "seeds": len(seeds[i]),
                            "seed_hits": sum(s.hit_count
                                             for s in seeds[i]),
                            "chains": len(chains[i]),
                            "sw_extensions": 0, "sw_cells": 0})
                    for chain in chains[i][:limit]:
                        prepared = self._prepare_trace(read, chain)
                        if prepared is not None:
                            lanes.append((i, *prepared))
                for (i, ref_begin, _), traced in zip(
                        lanes, self._trace_lanes(reads, lanes)):
                    candidate = self._finalize_trace(traced, ref_begin)
                    if candidate is not None:
                        candidates[i].append(candidate)
            if observed:
                for read_seeds, read_chains, found in zip(seeds, chains,
                                                          candidates):
                    self._record_read_metrics(
                        len(read_seeds), len(read_chains), bool(found),
                        limit)
        return candidates

    def _prepare_trace(self, read: np.ndarray, chain: Chain):
        """Window setup + telemetry for one chain's traceback, or
        ``None`` when the window is too short to bother extending."""
        n = int(read.size)
        ref_begin = max(0, chain.ref_start - chain.read_start
                        - self.band // 2)
        window = self._text[ref_begin:ref_begin + n + self.band]
        if window.size < n // 2:
            return None
        if telemetry.enabled():
            telemetry.observe("align.window_bp", int(window.size))
            telemetry.count("align.sw_extensions")
            stats = self.read_stats[-1]
            stats["sw_extensions"] += 1
            stats["sw_cells"] += int(window.size) * self.band
        return ref_begin, window

    def _finalize_trace(self, traced, ref_begin: int):
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
        return traced.score, hit.strand, hit.start, cigar_str

    def _trace_lanes(self, reads: "list[np.ndarray]",
                     lanes: "list[tuple[int, int, np.ndarray]]"):
        """Trace every ``(read index, ref_begin, window)`` lane.

        Without :attr:`tb_batch`, one scalar traceback per lane (the
        byte-identity oracle), produced lazily so the caller finalizes
        each lane as it is traced instead of holding a batch's worth of
        tracebacks.  With it, lanes are bucketed by read length -- a
        sweep needs one query length -- and each bucket goes to the
        kernel as one ``(lanes, m)`` query block, whatever reads its
        lanes came from.
        """
        if self.tb_batch is None:
            return (banded_sw_traceback(reads[i], window, self.scheme,
                                        self.band)
                    for i, _, window in lanes)
        buckets: "dict[int, list[int]]" = {}
        for slot, (i, _, _) in enumerate(lanes):
            buckets.setdefault(int(reads[i].size), []).append(slot)
        traced: "list" = [None] * len(lanes)
        for slots in buckets.values():
            block = np.stack([reads[lanes[slot][0]] for slot in slots])
            for slot, result in zip(slots, self.tb_batch(
                    block, [lanes[slot][2] for slot in slots],
                    self.scheme, self.band,
                    workspace=self._sw_workspace)):
                traced[slot] = result
        return traced
