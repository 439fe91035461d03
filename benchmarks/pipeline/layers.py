"""The traced run: per-layer metrics for one workload, in-process.

Runs after the timed CLI invocations, with tracing code only in this
directory.  :class:`Mirror` replays ``repro.cli._cmd_seed`` /
``_cmd_align`` / ``_cmd_align_pe`` and the scheduler's batch runners
call for call through public functions, recording one span per call
into a layer (span name = the layer's module).  Its TSV/SAM must equal
the CLI's bytes -- otherwise the decomposition describes a different
computation and the run fails.  Costs that are paid outside that replay
(index build/save, shared-memory publish/attach, one real scheduler
call) are timed once each, before the replay passes.

Layer times come from the fastest replay pass (one coherent
decomposition whose self times add up to its root span); counts are
deterministic and the same on every pass.
"""

from __future__ import annotations

import os
import pickle
import sys
import time

from repro.cli import build_parser
from repro.core import (
    ErtConfig,
    ErtSeedingEngine,
    build_ert,
    load_ert,
    save_ert,
)
from repro.extend import write_sam
from repro.extend.chaining import chain_seeds
from repro.extend.paired import PairedAligner
from repro.extend.pipeline import ReadAligner
from repro.kernels import (
    KernelBatchStats,
    batched_banded_sw,
    batched_sw_traceback,
    flat_trees,
    seed_batch,
)
from repro.kernels.traceback import MIN_WAVEFRONT_LANES
from repro.parallel import ParallelConfig, align_pairs, align_reads, seed_reads
from repro.parallel.batch import iter_chunks, pack_batch
from repro.parallel.shm import SharedIndexBuffer, attach_index
from repro.seeding import SeedingParams
from repro.seeding.algorithm import seed_read
from repro.sequence import read_fasta, read_fastq

from spans import Tracer
from truth import SEED_HEADER
from workloads import (
    BenchmarkError,
    InputPaths,
    Sizes,
    Workload,
    build_index_argv,
    cli_argv,
)

MB = 1e6
#: What only ``--workers N > 1`` pays; printed as 0 elsewhere (the driver
#: wants every metric from every workload).
PARALLEL_ONLY = (("parallel.shm.publish_s", "s"),
                 ("parallel.shm.segment_mb", "MB"),
                 ("parallel.shm.attach_s", "s"),
                 ("parallel.batch.pickle_kb_mean", "kB"),
                 ("parallel.scaling_eff", "ratio"),
                 ("parallel.scaling_eff_ex_publish", "ratio"))
#: Spans that are stages *inside* one scheduler call; the call's time
#: beyond them is ``parallel.scheduler.overhead_s``.
STAGE_SPANS = ("parallel.batch.pack", "core.engine.begin_batch",
               "kernels.flat.compile", "kernels.seeding.seed_batch",
               "core.engine.seed_read", "extend.pipeline.align_sam",
               "extend.paired.align_pair")


class TracebackMeter:
    """``tb_batch`` hook: times and counts every call into
    ``kernels.traceback`` (cells are computed: window size x band)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.calls = self.lanes = self.cells = self.scalar_calls = 0

    def __call__(self, read, windows, scheme, band, workspace=None):
        self.calls += 1
        self.lanes += len(windows)
        self.cells += sum(int(window.size) for window in windows) * band
        if len(windows) < MIN_WAVEFRONT_LANES:
            self.scalar_calls += 1
        with self.tracer.span("kernels.traceback"):
            return batched_sw_traceback(read, windows, scheme, band,
                                        workspace=workspace)


class ScoreOnlyMeter:
    """``sw_batch`` hook: counts calls into ``kernels.sw``.  The
    runners inject it, but only ``ReadAligner.align`` (score-only, no
    CIGAR) ever calls it -- the SAM paths go through ``tb_batch``."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, read, windows, scheme, band, workspace=None):
        self.calls += 1
        return batched_banded_sw(read, windows, scheme, band,
                                 workspace=workspace)


class Mirror:
    """One replay pass of a workload's CLI command, with spans."""

    def __init__(self, workload: Workload, args, out_path: str) -> None:
        self.workload = workload
        self.args = args
        self.out_path = out_path
        self.tracer = Tracer(workload.name)
        self.meter = TracebackMeter(self.tracer)
        self.score_only = ScoreOnlyMeter()
        self.kernel_stats: "list[KernelBatchStats]" = []
        self.seedings: "list[object]" = []
        self.records: "list[object]" = []
        self.n_reads = 0
        self.index = None
        self._flat_compiled = False

    def run(self) -> "Mirror":
        span = self.tracer.span
        args = self.args
        with span("pipeline"):
            with span("core.io.load"):
                self.index = index = load_ert(args.index)
            with span("sequence.io.parse"):
                reads = read_fastq(args.reads)
            self.n_reads = len(reads)
            engine = ErtSeedingEngine(index, gather_limit=500)
            if self.workload.command == "seed":
                self._seed(engine, reads)
            elif self.workload.command == "align":
                self._align(engine, reads)
            else:
                self._align_pe(engine, reads)
        return self

    def _batches(self, reads, size: int):
        with self.tracer.span("parallel.batch.pack"):
            return [pack_batch(chunk) for chunk in iter_chunks(reads, size)]

    def _seed_vector(self, engine, reads, params):
        """``begin_batch`` + ``seed_batch`` as the vector runners call
        them; the flat arena compile (lazy, once per process) gets its
        own span."""
        span = self.tracer.span
        with span("core.engine.begin_batch"):
            engine.begin_batch(reads)
        if not self._flat_compiled:
            with span("kernels.flat.compile"):
                flat_trees(engine.index)
            self._flat_compiled = True
        stats = KernelBatchStats(len(reads))
        with span("kernels.seeding.seed_batch"):
            seeded = seed_batch(engine, reads, params, stats=stats)
        self.kernel_stats.append(stats)
        self.seedings.extend(seeded)
        return seeded

    def _seed(self, engine, reads) -> None:
        """``_cmd_seed`` over ``_SeedRunner`` (vector)."""
        args, span = self.args, self.tracer.span
        params = SeedingParams(min_seed_len=args.min_seed_len,
                               max_hits_per_seed=args.max_hits)
        lines = []
        for batch in self._batches(reads, args.batch_size):
            engine.reset_stats()
            seeded = self._seed_vector(engine, batch.reads(), params)
            with span("parallel.scheduler.format_tsv"):
                for name, result in zip(batch.names, seeded):
                    for seed in result.all_seeds:
                        hits = ",".join(str(h) for h in seed.hits)
                        lines.append(
                            f"{name}\t{seed.read_start}\t{seed.length}"
                            f"\t{seed.hit_count}\t{hits}\n")
        with span("cli.write_tsv"), open(self.out_path, "w") as out:
            out.write(SEED_HEADER)
            for line in lines:
                out.write(line)

    def _align(self, engine, reads) -> None:
        """``_cmd_align`` over ``_AlignRunner._vector_batch``."""
        args, span = self.args, self.tracer.span
        params = SeedingParams(min_seed_len=args.min_seed_len)
        aligner = ReadAligner(self.index.reference, engine, params=params,
                              sw_batch=self.score_only,
                              tb_batch=self.meter)
        for batch in self._batches(reads, args.batch_size):
            engine.reset_stats()
            batch_reads = batch.reads()
            seeded = self._seed_vector(engine, batch_reads, params)
            for name, quality, read, seeding in zip(
                    batch.names, batch.qualities, batch_reads, seeded):
                with span("extend.pipeline.align_sam"):
                    self.records.append(aligner.align_sam(
                        read, name, quality, seeding=seeding))
        with span("extend.sam.write"):
            write_sam(self.out_path, self.index.reference, self.records)

    def _align_pe(self, engine, reads) -> None:
        """``_cmd_align_pe`` over ``_AlignPairsRunner`` (scalar).  The
        two ``seed_read`` calls are hoisted out of ``align_pair`` (its
        ``seeding1=``/``seeding2=`` parameters) so the oracle's seeding
        and the pairing logic get separate spans."""
        args, span = self.args, self.tracer.span
        params = SeedingParams(min_seed_len=args.min_seed_len)
        paired = PairedAligner(
            ReadAligner(self.index.reference, engine, params=params),
            insert_mean=args.insert_mean, insert_sd=args.insert_sd)
        for batch in self._batches(reads, 2 * args.batch_size):
            engine.reset_stats()
            batch_reads = batch.reads()
            with span("core.engine.begin_batch"):
                engine.begin_batch(batch_reads)
            for i in range(0, len(batch_reads), 2):
                with span("core.engine.seed_read"):
                    seeding1 = seed_read(engine, batch_reads[i], params)
                    seeding2 = seed_read(engine, batch_reads[i + 1], params)
                self.seedings += (seeding1, seeding2)
                with span("extend.paired.align_pair"):
                    self.records.extend(paired.align_pair(
                        batch_reads[i], batch_reads[i + 1],
                        batch.names[i].split("/")[0],
                        batch.qualities[i], batch.qualities[i + 1],
                        seeding1=seeding1, seeding2=seeding2))
        with span("extend.sam.write"):
            write_sam(self.out_path, self.index.reference, self.records)

    def counts(self) -> "tuple[int, ...]":
        """Work counters that must not change from pass to pass."""
        return (self.n_reads, len(self.records), self.meter.calls,
                self.meter.lanes, self.meter.cells,
                sum(int(s.walk_steps.sum()) for s in self.kernel_stats),
                sum(int(s.gather_bytes.sum()) for s in self.kernel_stats))

    def replay_chaining(self) -> int:
        """``chain_seeds`` again on every read's seeds, outside the
        pipeline span (``align_sam`` calls it internally, where this
        directory cannot put a span).  Returns the chain count."""
        with self.tracer.span("extend.chaining.replay"):
            return sum(len(chain_seeds(result.all_seeds))
                       for result in self.seedings)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed(function, *args, **kwargs):
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return time.perf_counter() - start, value


def _scheduler_call(workload: Workload, args, workers: int) -> float:
    """One real ``seed_reads`` / ``align_reads`` / ``align_pairs`` call
    on a freshly loaded index (so per-process costs are paid, as in a
    CLI invocation)."""
    index = load_ert(args.index)
    reads = read_fastq(args.reads)
    config = ParallelConfig(workers=workers, batch_size=args.batch_size,
                            retries=args.retries,
                            batch_timeout=args.batch_timeout,
                            kernels=workload.kernels)
    if workload.command == "seed":
        params = SeedingParams(min_seed_len=args.min_seed_len,
                               max_hits_per_seed=args.max_hits)
        return _timed(seed_reads, index, reads, params, config=config)[0]
    params = SeedingParams(min_seed_len=args.min_seed_len)
    if workload.command == "align":
        return _timed(align_reads, index, reads, params, config=config)[0]
    return _timed(align_pairs, index, reads, params,
                  insert_mean=args.insert_mean, insert_sd=args.insert_sd,
                  config=config)[0]


def _index_layers(paths: InputPaths, sizes: Sizes, scratch: str,
                  metrics: "dict[str, tuple[float, str]]") -> None:
    """``_cmd_build_index`` with the CLI's defaults, timed per layer."""
    args = build_parser().parse_args(build_index_argv(paths, sizes)[3:])
    reference = read_fasta(args.reference)[0]
    config = ErtConfig(k=args.k, max_seed_len=args.max_seed_len,
                       table_threshold=args.table_threshold,
                       table_x=args.table_x,
                       prefix_merging=args.prefix_merging)
    build_s, index = _timed(build_ert, reference, config)
    saved = os.path.join(scratch, "traced-index.npz")
    save_s, _ = _timed(save_ert, index, saved)
    metrics["core.builder.build_s"] = (build_s, "s")
    metrics["core.io.save_s"] = (save_s, "s")
    metrics["core.io.index_file_mb"] = (os.path.getsize(saved) / MB, "MB")
    metrics["core.index.trees"] = (len(index.roots), "count")
    metrics["core.index.total_mb"] = (index.index_bytes()["total"] / MB,
                                      "MB")


def _parallel_layers(workload: Workload, args, serial_call_s: float,
                     stage_s: float,
                     metrics: "dict[str, tuple[float, str]]") -> None:
    """What ``--workers N`` adds: publish, attach, pickle, and one real
    pool call for the fixed-size scaling numbers."""
    index = load_ert(args.index)
    publish_s, shared = _timed(SharedIndexBuffer, index)
    with shared:
        attach_s, attached = _timed(attach_index, shared.name, shared.size)
        segment_mb = shared.size / MB
        del attached
    batches = [pack_batch(chunk) for chunk in
               iter_chunks(read_fastq(args.reads), args.batch_size)]
    pickled = [len(pickle.dumps(batch)) for batch in batches]
    call_s = _scheduler_call(workload, args, workload.workers)
    n = workload.workers
    metrics["parallel.shm.publish_s"] = (publish_s, "s")
    metrics["parallel.shm.segment_mb"] = (segment_mb, "MB")
    metrics["parallel.shm.attach_s"] = (attach_s, "s")
    metrics["parallel.batch.pickle_kb_mean"] = (
        sum(pickled) / len(pickled) / 1e3, "kB")
    metrics["parallel.scheduler.call_s"] = (call_s, "s")
    metrics["parallel.scheduler.overhead_s"] = (
        call_s - publish_s - stage_s / n, "s")
    metrics["parallel.scaling_eff"] = (serial_call_s / (n * call_s), "ratio")
    metrics["parallel.scaling_eff_ex_publish"] = (
        serial_call_s / (n * (call_s - publish_s)), "ratio")


def _startup_s(runner) -> float:
    argv = [sys.executable, "-m", "repro.cli", "--help"]
    return min(runner.invoke(argv)[0] for _ in range(3))


def traced_run(workload: Workload, sizes: Sizes, paths: InputPaths,
               runner, cli_output: bytes, cli_serial_wall_s: float,
               seconds: float, scratch: str) \
        -> "tuple[dict[str, tuple[float, str]], dict[str, object]]":
    """Per-layer metrics (name -> (value, unit)) and the trace of the
    fastest replay pass.  ``cli_serial_wall_s`` is the untraced
    ``--workers 1`` invocation the replay is compared with."""
    for name in ("REPRO_WORKERS", "REPRO_KERNELS", "REPRO_RETRIES"):
        os.environ.pop(name, None)
    begin = time.perf_counter()
    out_path = os.path.join(scratch, "traced-" + workload.output_name)
    args = build_parser().parse_args(
        cli_argv(workload, paths.index, paths.reads, out_path)[3:])
    metrics: "dict[str, tuple[float, str]]" = {}
    startup_s = _startup_s(runner)
    metrics["cli.startup_s"] = (startup_s, "s")
    _index_layers(paths, sizes, scratch, metrics)
    serial_call_s = _scheduler_call(workload, args, workers=1)

    best: "Mirror | None" = None
    while True:
        mirror = Mirror(workload, args, out_path).run()
        with open(out_path, "rb") as handle:
            if handle.read() != cli_output:
                raise BenchmarkError(
                    f"{workload.name}: traced output differs from the CLI's")
        if best is not None and mirror.counts() != best.counts():
            raise BenchmarkError(
                f"{workload.name}: work counts differ between replay passes")
        if best is None or (mirror.tracer.root_total()
                            < best.tracer.root_total()):
            best = mirror
        if time.perf_counter() - begin + best.tracer.root_total() > seconds:
            break
    pipeline_s = best.tracer.root_total()
    n_chains = best.replay_chaining()
    tracer, meter = best.tracer, best.meter
    stage_s = sum(tracer.total(name) for name in STAGE_SPANS)

    if workload.workers > 1:
        _parallel_layers(workload, args, serial_call_s, stage_s, metrics)
    else:
        metrics.update({name: (0.0, unit) for name, unit in PARALLEL_ONLY})
        metrics["parallel.scheduler.call_s"] = (serial_call_s, "s")
        metrics["parallel.scheduler.overhead_s"] = (
            serial_call_s - stage_s, "s")

    for metric, span_name in (
            ("sequence.io.parse_s", "sequence.io.parse"),
            ("core.io.load_s", "core.io.load"),
            ("core.engine.begin_batch_s", "core.engine.begin_batch"),
            ("core.engine.seed_read_s", "core.engine.seed_read"),
            ("kernels.flat.compile_s", "kernels.flat.compile"),
            ("kernels.seeding.seed_batch_s", "kernels.seeding.seed_batch"),
            ("kernels.traceback.busy_s", "kernels.traceback"),
            ("extend.chaining.chain_s", "extend.chaining.replay"),
            ("extend.paired.align_pair_s", "extend.paired.align_pair"),
            ("extend.sam.write_s", "extend.sam.write"),
            ("cli.write_tsv_s", "cli.write_tsv"),
            ("parallel.batch.pack_s", "parallel.batch.pack"),
            ("parallel.scheduler.format_tsv_s",
             "parallel.scheduler.format_tsv")):
        metrics[metric] = (tracer.total(span_name), "s")
    metrics["extend.pipeline.align_self_s"] = (
        tracer.self_times().get("extend.pipeline.align_sam", 0.0), "s")
    metrics["sequence.io.reads"] = (best.n_reads, "count")

    stats = best.kernel_stats
    gather_bytes = sum(int(s.gather_bytes.sum()) for s in stats)
    occ_slots = sum(s.occ_slots for s in stats)
    seed_batch_s = tracer.total("kernels.seeding.seed_batch")
    for metric, value, unit in (
            ("walk_steps", sum(int(s.walk_steps.sum()) for s in stats),
             "count"),
            ("gather_bytes", gather_bytes, "B"),
            ("wave_rounds", sum(s.wave_rounds for s in stats), "count"),
            ("reseed_launches",
             sum(int(s.reseed_launches.sum()) for s in stats), "count"),
            ("last_launches",
             sum(int(s.last_launches.sum()) for s in stats), "count"),
            ("lane_occupancy_mean",
             _ratio(sum(s.occ_live for s in stats), occ_slots), "ratio"),
            ("gather_mb_per_s", _ratio(gather_bytes / MB, seed_batch_s),
             "MB/s")):
        metrics["kernels.seeding." + metric] = (value, unit)

    metrics["kernels.sw.calls"] = (best.score_only.calls, "count")
    metrics["kernels.traceback.calls"] = (meter.calls, "count")
    metrics["kernels.traceback.lanes"] = (meter.lanes, "count")
    metrics["kernels.traceback.cells"] = (meter.cells, "count")
    metrics["kernels.traceback.lanes_per_call_mean"] = (
        _ratio(meter.lanes, meter.calls), "ratio")
    metrics["kernels.traceback.scalar_dispatch_frac"] = (
        _ratio(meter.scalar_calls, meter.calls), "ratio")
    metrics["extend.chaining.chains_per_read_mean"] = (
        n_chains / best.n_reads, "ratio")
    metrics["extend.paired.proper_frac"] = (
        _ratio(sum(1 for record in best.records if record.flag & 0x2),
               2 * tracer.count("extend.paired.align_pair")), "ratio")
    metrics["extend.sam.out_mb"] = (
        len(cli_output) / MB if workload.command != "seed" else 0.0, "MB")
    metrics["bench.trace_overhead_frac"] = (
        (pipeline_s - (cli_serial_wall_s - startup_s)) / cli_serial_wall_s,
        "ratio")
    return metrics, tracer.to_json()
