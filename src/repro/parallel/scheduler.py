"""The batch scheduler: bounded in-flight fan-out, in-order merge,
fault-tolerant execution.

Execution model (tentpole of the parallel layer):

* the parent packs reads into :class:`~repro.parallel.batch.ReadBatch`
  units as it needs them -- the reads may be a stream, pulled one batch
  at a time -- and submits them to a ``ProcessPoolExecutor`` whose
  workers were
  initialized once with an *engine spec* -- the index file to map
  (``("file", path, identity, gather_limit)``): every worker maps the
  file the parent mapped, so the page cache holds one copy, zero-copy;
* at most :data:`INFLIGHT_PER_WORKER` batches per worker are
  outstanding; results are consumed strictly in submission order, so
  concatenating per-batch payloads reproduces the serial output **byte
  for byte** regardless of worker finishing order;
* every batch returns ``(payload, stats delta, telemetry snapshot)``;
  the parent merges worker telemetry into the live registry as the
  batch merges, so ``--profile`` / ``--metrics-out`` see the same
  counters as a serial run, and :func:`map_reads` hands each payload
  and stats delta on at once -- the CLI writes it, the list entry
  points fold stats into one :class:`~repro.seeding.engine.EngineStats`;
* ``workers <= 1`` short-circuits to an in-process loop over the same
  batches -- no pool, no pickling, live telemetry -- which still gains
  the per-batch pre-encoding and the engine's ``begin_batch`` hoists
  (the serial fast path).

Imports follow the same split as the execution model: everything a
batch *executes* is imported here, at module scope (or, for the layers
only ``align`` / ``align-pe`` reach, by :func:`_extension`), so under
``fork`` the parent has loaded it before a pool exists and no worker
imports anything.  What only a pool needs -- ``multiprocessing``,
``concurrent.futures``, the index file of an index built in memory, the
retry policy, the recovery loop and its fault model -- is
:mod:`repro.parallel.pool`, imported in the ``workers > 1`` branch; a
one-worker run loads none of it.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from repro import telemetry
from repro.core.engine import ErtSeedingEngine
from repro.kernels import KERNEL_CHOICES
from repro.parallel.batch import ReadBatch, iter_chunks, pack_batch
from repro.seeding.algorithm import SeedingParams, seed_batch
from repro.seeding.engine import EngineStats
from repro.seeding.stats import KernelBatchStats, wall_shares

if TYPE_CHECKING:
    from repro.core.index import ErtIndex
    from repro.extend.sam import SamRecord
    from repro.parallel.faults import RetryPolicy
    from repro.seeding.types import SeedingResult

    #: One batch's merged result as the entry points yield it: the
    #: payload (TSV lines or SAM records, in input order) and its
    #: engine-stats delta.
    ReadsResult = Tuple[List[Any], Dict[str, int]]

#: One batch's wire result: payload, engine-stats delta, telemetry
#: snapshot delta (None in serial mode, where telemetry records live).
BatchResult = Tuple[Any, "dict[str, int]", "dict[str, Any] | None"]

EngineSpec = Tuple[Any, ...]

#: Batches kept outstanding per worker: one running, one queued behind
#: it, so a worker never idles waiting for the parent to submit.
INFLIGHT_PER_WORKER = 2


class _ParallelConfigFields(NamedTuple):
    workers: "int | None" = None
    batch_size: int = 64
    retries: "int | None" = None
    batch_timeout: "float | None" = None
    #: Multiprocessing start method for the pool ("fork"/"spawn"/
    #: "forkserver"); None defers to the platform default.  Output and
    #: merged telemetry are identical either way -- spawn just pays a
    #: slower worker boot, which the fault/exemplar tests exercise.
    start_method: "str | None" = None
    #: Traceback kernel selection, one of ``KERNEL_CHOICES``: "vector"
    #: packs extension lanes into the batched kernel
    #: (:mod:`repro.kernels.traceback`), "scalar" runs one
    #: ``banded_sw_traceback`` per lane -- output is byte-identical
    #: either way, at any worker count.
    kernels: str = "vector"

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return default_workers()

    def resolved_policy(self) -> RetryPolicy:
        from repro.parallel.faults import RetryPolicy, default_retries

        retries = (self.retries if self.retries is not None
                   else default_retries())
        return RetryPolicy(retries=max(0, retries),
                           batch_timeout=self.batch_timeout)


class ParallelConfig(_ParallelConfigFields):
    """Knobs of the batch execution layer.

    ``workers=None`` defers to :func:`default_workers` (the
    ``REPRO_WORKERS`` environment variable, else 1), which is how the CI
    matrix drives the whole test suite through the pool without touching
    every call site.  ``retries=None`` likewise defers to
    ``$REPRO_RETRIES`` (else :data:`~repro.parallel.faults.
    DEFAULT_RETRIES`); ``batch_timeout`` is in seconds, ``None`` waits
    forever.  A read-only ``NamedTuple``: construction, ``_make`` /
    ``_replace`` and unpickling all check ``kernels``.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ParallelConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.kernels not in KERNEL_CHOICES:
            raise ValueError(
                f"unknown kernels selection {self.kernels!r}; expected "
                f"one of {'/'.join(KERNEL_CHOICES)}")
        return self

    @classmethod
    def _make(  # type: ignore[override]
            cls, iterable: "Iterable[Any]") -> "ParallelConfig":
        return cls(*iterable)


def default_workers() -> int:
    """Worker count when unspecified: ``$REPRO_WORKERS``, else 1."""
    value = os.environ.get("REPRO_WORKERS", "")
    try:
        return max(1, int(value))
    except ValueError:
        if value:
            warnings.warn(
                f"ignoring unparsable REPRO_WORKERS={value!r}; "
                f"running with 1 worker", RuntimeWarning, stacklevel=2)
        return 1


# ----------------------------------------------------------------------
# The batch runner (constructed once per worker, or per serial run)
# ----------------------------------------------------------------------


def _tsv_lines(names: "Sequence[str]",
               seeded: "Sequence[SeedingResult]") -> "list[str]":
    """The CLI's TSV lines of a batch: one per seed of each read's
    ``all_seeds``, in read order."""
    return [f"{name}\t{start}\t{length}\t{count}"
            f"\t{','.join(map(str, hits))}\n"
            for name, result in zip(names, seeded)
            for start, length, hits, count in result.all_seeds]


def _extension(task: str, vector: bool) -> "tuple[Any, Any, Any]":
    """What an ``align`` / ``align-pe`` runner is built from: the
    aligner class, its batched kernel hooks (vector only: the
    score-only ``sw_batch`` and the traceback ``tb_batch``) and the pair
    aligner class (``align-pe`` only).  A ``seed`` run never calls
    this, so it loads no extension layer; the pool path calls it in the
    parent before the pool exists, so a forked worker's own call finds
    every module already loaded."""
    from repro.extend.pipeline import ReadAligner

    kernels: "dict[str, Any]" = {}
    paired = None
    if vector:
        from repro.kernels.traceback import (
            batched_banded_sw, batched_sw_traceback)
        kernels = {"sw_batch": batched_banded_sw,
                   "tb_batch": batched_sw_traceback}
    if task == "align-pe":
        from repro.extend.paired import PairedAligner
        paired = PairedAligner
    return ReadAligner, kernels, paired


class _BatchRunner:
    """The per-batch body of every task: seed the batch, build the
    payload through the backend-neutral batch entry points, capture the
    reads' exemplars.

    Every batch is seeded by one ``seed_batch`` sweep.  ``kernels``
    decides one thing only -- the extension kernels: the batched ones
    (score every lane, trace the gapped ones), or none (one
    ``banded_sw_traceback`` per lane, the oracle).  The rest runs identically observed or dark, in the serial
    loop and inside pool workers.
    """

    def __init__(self, engine: ErtSeedingEngine, task: str,
                 options: "dict[str, Any]") -> None:
        self.engine = engine
        self.task = task
        self.params: SeedingParams = options.get("params") \
            or SeedingParams()
        if task in ("align", "align-pe"):
            aligner, kernels, paired = _extension(
                task, options.get("kernels") == "vector")
            self.aligner = aligner(engine.index.reference, engine,
                                   params=self.params, **kernels)
        if task == "align-pe":
            self.paired = paired(self.aligner,
                                 insert_mean=options["insert_mean"],
                                 insert_sd=options["insert_sd"])

    def __call__(self, batch: ReadBatch) -> "list[Any]":
        reads = batch.reads()
        names: "Sequence[str]" = batch.names
        probe = telemetry.read_probe()
        if probe is None:  # dark: no exemplar needs the per-read columns
            seeded = seed_batch(self.engine, reads, self.params)
        else:
            stats = KernelBatchStats(len(reads))
            seeded = seed_batch(self.engine, reads, self.params,
                                stats=stats)
            # The sweep cannot probe per read (its hot loops are
            # telemetry-call-free by construction): the per-read columns
            # of its KernelBatchStats are the seeding counter rows, and
            # their walk_steps apportion its wall time.
            seed_ms = wall_shares(telemetry.probe_ms(probe),
                                  stats.walk_steps)
        payload: "list[Any]"
        if self.task == "seed":
            payload = _tsv_lines(names, seeded)
        elif self.task == "align":
            payload = self.aligner.align_sam_batch(
                reads, names, batch.qualities, seeded)
        else:
            names = [name.split("/")[0] for name in names[0::2]]
            payload = self.paired.align_pairs(reads, names,
                                              batch.qualities, seeded)
        if probe is None:
            return payload
        # Exemplar capture lives here, not in seed_batch()/extend_batch():
        # the runner is the one place that knows the read *names*, and it
        # never touches the payload, so output is byte-identical observed
        # or dark.  Seeding wall time comes per read from the seeder; the
        # rest of the probe (chain + extend) is apportioned by
        # ``1 + sw_cells``.  One exemplar per name: a read, or a pair
        # with its mates' shares and counters summed.
        extension = self.aligner.read_stats if self.task != "seed" else []
        shares = seed_ms
        if extension:
            shares = seed_ms + wall_shares(
                telemetry.probe_ms(probe) - float(seed_ms.sum()),
                [row["sw_cells"] for row in extension])
        group = 2 if self.task == "align-pe" else 1

        def make_counters(e: int) -> "dict[str, int]":
            counters: "dict[str, int]" = {}
            for i in range(e * group, (e + 1) * group):
                seeds = seeded[i].all_seeds
                row = extension[i] if extension else {
                    "seeds": len(seeds),
                    "seed_hits": sum(s.hit_count for s in seeds)}
                for key, value in {**row,
                                   **stats.read_counters(i)}.items():
                    counters[key] = counters.get(key, 0) + value
            return counters

        telemetry.record_reads(
            probe, list(names),
            shares.reshape(-1, group).sum(axis=1).tolist(), make_counters,
            task=self.task)
        return payload


# ----------------------------------------------------------------------
# Worker lifecycle
# ----------------------------------------------------------------------

#: Per-process worker state, populated once by the pool initializer.
_WORKER: "dict[str, Any]" = {}


def _resolve_engine(spec: EngineSpec) -> ErtSeedingEngine:
    """The engine a spec names, in this process: a ``local`` spec
    carries the engine itself; a ``file`` spec (a worker's initializer)
    maps the index file, which must still be the file the parent mapped
    -- one replaced since fails the initializer, and the pool degrades
    to the parent's own mapping."""
    kind = spec[0]
    if kind == "local":
        return spec[1]
    if kind == "file":
        from repro.core.io import load_ert
        from repro.logging import get_logger

        _, path, identity, gather_limit = spec
        with telemetry.recorder().scope("index.map", {"path": path,
                                                      "bytes": identity[2]}):
            index = load_ert(path, identity)
        assert index.source is not None
        get_logger("parallel.scheduler").info(
            "index.map", path=path, bytes=identity[2],
            crc_ms=round(index.source.crc_ms, 3))
        return ErtSeedingEngine(index, gather_limit=gather_limit)
    raise ValueError(f"unknown engine spec kind {kind!r}")


def _worker_init(spec: EngineSpec, task: str, options: "dict[str, Any]",
                 telemetry_on: bool,
                 events_epoch: "int | None" = None) -> None:
    fault = options.get("fault")
    if fault is not None and fault.get("kind") == "init-raise":
        raise RuntimeError("injected pool-init fault")
    # fork_reset, not reset: under fork this process may have inherited
    # an open parent span (the recovery span during a respawn); a plain
    # reset would refuse and kill the worker in its initializer.  It runs
    # *before* engine construction so timeline capture (restarted on the
    # parent's epoch just below) can see the index map.
    telemetry.fork_reset()
    if telemetry_on:
        telemetry.enable()
    else:
        telemetry.disable()
    if events_epoch is not None:
        telemetry.start_recording(events_epoch)
    with telemetry.recorder().scope("worker.init"):
        _WORKER["runner"] = _BatchRunner(_resolve_engine(spec), task,
                                         options)
    _WORKER["telemetry"] = telemetry_on
    _WORKER["events"] = events_epoch is not None
    _WORKER["fault"] = fault


def _trip_injected_fault(fault: "dict[str, Any] | None") -> None:
    """Fault-injection hook for the test battery
    (``tests/test_parallel_faults.py``): trip at most once per ``token``
    file (``O_EXCL`` creation is the cross-process turnstile), so a
    retried batch runs clean on a respawned pool."""
    if fault is None:
        return
    token = fault.get("token")
    if token is not None:
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
    kind = fault["kind"]
    if kind == "sigkill":
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(float(fault.get("seconds", 30.0)))
    elif kind == "raise":
        raise RuntimeError("injected batch fault")


def _run_batch(batch: ReadBatch, batch_index: int,
               state: "dict[str, Any]" = _WORKER) -> BatchResult:
    """One batch through a runner: the pool task (``state`` is this
    worker's ``_WORKER``) and the body of the in-process loop, whose
    state holds a runner only -- no fault hook, and telemetry records
    live in the parent, so no snapshot ships."""
    _trip_injected_fault(state.get("fault"))
    runner: _BatchRunner = state["runner"]
    engine = runner.engine
    engine.reset_stats()
    observed = state.get("telemetry", False)
    if observed:
        telemetry.reset()
    with telemetry.recorder().scope("batch", {"index": batch_index,
                                              "reads": len(batch.names)}):
        payload = runner(batch)
    snap: "dict[str, Any] | None" = (telemetry.snapshot()
                                     if observed else None)
    if state.get("events"):
        # The drained worker track rides back inside the snapshot slot of
        # the existing wire tuple; merge_snapshot absorbs it in the
        # parent even when metrics are disabled.
        track = telemetry.drain_timeline()
        if track is not None:
            snap = {"timeline": track} if snap is None \
                else dict(snap, timeline=track)
    return payload, engine.stats.as_dict(), snap


def _serial_batches(spec: EngineSpec, task: str,
                    options: "dict[str, Any]",
                    batches: "Iterable[ReadBatch]") \
        -> "Iterator[BatchResult]":
    """The in-process loop shared by the serial fast path and the
    degraded-mode fallback."""
    state = {"runner": _BatchRunner(_resolve_engine(spec), task, options)}
    for index, batch in enumerate(batches):
        yield _run_batch(batch, index, state)


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------


def map_batches(spec: EngineSpec, task: str, options: "dict[str, Any]",
                batches: "Iterable[ReadBatch]",
                config: ParallelConfig) -> "Iterator[BatchResult]":
    """Run ``batches`` through the worker pool, yielding results in
    submission order with at most :data:`INFLIGHT_PER_WORKER` per worker
    outstanding.

    ``batches`` is pulled lazily: a batch is taken from it only when a
    worker slot is free (or, with one worker, when the previous result
    has been consumed), so the caller's iterable may be a stream.  With
    one worker everything runs in-process over the same batch units
    -- the serial fast path.  A pool's workers map the index file of the
    spec's engine (:func:`repro.parallel.pool.pool_map`).  Pool failures
    are classified, retried and degraded per :mod:`repro.parallel.pool`
    (imported here, in the parent, before any pool exists); when a
    typed error escapes this generator, every consumed prefix result was
    already byte-exact and no partial batch has been yielded.  An
    exception raised by ``batches`` itself escapes once every batch
    taken before it has been yielded, at any worker count.
    """
    workers = config.resolved_workers()
    if workers <= 1:
        yield from _serial_batches(spec, task, options, batches)
        return
    from repro.parallel.pool import pool_map

    yield from pool_map(spec, task, options, batches, config, workers)


def _map_reads(engine: ErtSeedingEngine, task: str,
               options: "dict[str, Any]", reads: "Iterable[object]",
               config: ParallelConfig,
               chunk_size: int) -> "Iterator[ReadsResult]":
    """The body of every entry point: pack ``reads`` into batches of
    ``chunk_size`` as the scheduler asks for them, map them over
    ``engine``, and yield each batch's payload and stats delta in
    submission order.

    One worker runs on ``engine`` itself; a pool's workers map the file
    of its index, never once per batch.  A worker's telemetry snapshot
    merges into the live registry as its batch is yielded.  ``align-pe``
    batches hold whole pairs: a last batch of odd size raises
    ``ValueError`` when it is packed.
    """
    def batches() -> "Iterator[ReadBatch]":
        for chunk in iter_chunks(reads, chunk_size):
            if task == "align-pe" and len(chunk) % 2:
                raise ValueError(
                    "interleaved read set must hold an even count")
            yield pack_batch(chunk)

    for items, stat_delta, snap in map_batches(
            ("local", engine), task, options, batches(), config):
        if snap is not None:
            telemetry.merge_snapshot(snap)
        yield items, stat_delta


def _collect(results: "Iterable[ReadsResult]") \
        -> "tuple[list[Any], EngineStats]":
    """Concatenate per-batch payloads and fold their stats into one
    :class:`EngineStats`: the list form of :func:`map_reads`."""
    payload: "list[Any]" = []
    stats = EngineStats()
    for items, stat_delta in results:
        payload.extend(items)
        stats.add_dict(stat_delta)
    return payload, stats


# ----------------------------------------------------------------------
# High-level entry points (what the CLI calls)
# ----------------------------------------------------------------------


def map_reads(index: ErtIndex, task: str, reads: "Iterable[object]",
              params: "SeedingParams | None" = None,
              config: "ParallelConfig | None" = None, *,
              insert_mean: int = 350,
              insert_sd: int = 50) -> "Iterator[ReadsResult]":
    """Run ``task`` (``"seed"``, ``"align"`` or ``"align-pe"``) over
    ``reads`` and yield one ``(payload, stats delta)`` per batch, in
    input order: the CLI's TSV lines (one per seed, newline-terminated)
    or SAM records.

    ``reads`` may be any iterable, a stream included: the scheduler
    takes a batch from it only when a worker can run it, so the caller
    holds at most the in-flight window of batches (``config.batch_size``
    reads each, pairs for ``align-pe``) plus the one it is consuming.
    ``align-pe`` reads are interleaved mates (mate1, mate2, ...), an
    even count.
    """
    config = config or ParallelConfig()
    options: "dict[str, Any]" = {"params": params,
                                 "kernels": config.kernels}
    chunk_size = config.batch_size
    if task == "align-pe":
        # Batch at pair granularity so mates never split across workers.
        options.update(insert_mean=insert_mean, insert_sd=insert_sd)
        chunk_size *= 2
    return _map_reads(ErtSeedingEngine(index), task, options, reads,
                      config, chunk_size)


def seed_reads(index: ErtIndex, reads: "Iterable[object]",
               params: "SeedingParams | None" = None,
               config: "ParallelConfig | None" = None) \
        -> "tuple[list[str], EngineStats]":
    """Seed ``reads`` in batches; returns the CLI's TSV lines (one per
    seed, newline-terminated, in input order) plus aggregated stats."""
    return _collect(map_reads(index, "seed", reads, params, config))


def align_reads(index: ErtIndex, reads: "Iterable[object]",
                params: "SeedingParams | None" = None,
                config: "ParallelConfig | None" = None) \
        -> "tuple[list[SamRecord], EngineStats]":
    """Align ``reads`` to SAM records, byte-identical to the serial
    per-read loop, in input order."""
    return _collect(map_reads(index, "align", reads, params, config))


def align_pairs(index: ErtIndex, reads: "Iterable[object]",
                params: "SeedingParams | None" = None,
                insert_mean: int = 350, insert_sd: int = 50,
                config: "ParallelConfig | None" = None) \
        -> "tuple[list[SamRecord], EngineStats]":
    """Align interleaved paired-end ``reads`` (mate1, mate2, ...).

    Batching happens at pair granularity (``batch_size`` pairs per
    batch) so mates never split across workers.
    """
    return _collect(map_reads(index, "align-pe", reads, params, config,
                              insert_mean=insert_mean,
                              insert_sd=insert_sd))
