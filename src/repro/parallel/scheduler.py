"""The batch scheduler: bounded in-flight fan-out, in-order merge,
fault-tolerant execution.

Execution model (tentpole of the parallel layer):

* the parent packs reads into :class:`~repro.parallel.batch.ReadBatch`
  units and submits them to a ``ProcessPoolExecutor`` whose workers were
  initialized once with an *engine spec* -- a shared-memory index
  attachment (``("shm", name, size, gather_limit)``, zero-copy);
* at most :data:`INFLIGHT_PER_WORKER` batches per worker are
  outstanding; results are consumed strictly in submission order, so
  concatenating per-batch payloads reproduces the serial output **byte
  for byte** regardless of worker finishing order;
* every batch returns ``(payload, stats delta, telemetry snapshot)``;
  the parent folds stats into one :class:`~repro.seeding.engine.
  EngineStats` and merges worker telemetry into the live registry, so
  ``--profile`` / ``--metrics-out`` see the same counters as a serial
  run;
* ``workers <= 1`` short-circuits to an in-process loop over the same
  batches -- no pool, no pickling, live telemetry -- which still gains
  the per-batch pre-encoding and the engine's ``begin_batch`` hoists
  (the serial fast path).

Imports follow the same split as the execution model: everything a
batch *executes* is imported here, at module scope (or, for the layers
only ``align`` / ``align-pe`` reach, by :func:`_extension`), so under
``fork`` the parent has loaded it before a pool exists and no worker
imports anything.  What only a pool needs -- ``multiprocessing``,
``concurrent.futures``, the shared-memory owner, the retry policy, the
recovery loop and its fault model -- is :mod:`repro.parallel.pool`,
imported in the ``workers > 1`` branch; a one-worker run loads none of
it.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Sequence,
    Tuple,
)

import numpy as np

from repro import telemetry
from repro.core.engine import ErtSeedingEngine
from repro.kernels import resolve_kernels
from repro.kernels.seeding import seed_batch, vector_decline_reason
from repro.kernels.stats import KernelBatchStats, wall_shares
from repro.parallel.batch import ReadBatch, iter_chunks, pack_batch
from repro.seeding.algorithm import SeedingParams, seed_read
from repro.seeding.engine import EngineStats

if TYPE_CHECKING:
    from repro.core.index import ErtIndex
    from repro.extend.sam import SamRecord
    from repro.parallel.faults import RetryPolicy

#: One batch's wire result: payload, engine-stats delta, telemetry
#: snapshot delta (None in serial mode, where telemetry records live).
BatchResult = Tuple[Any, "dict[str, int]", "dict[str, Any] | None"]

EngineSpec = Tuple[Any, ...]

#: Batches kept outstanding per worker: one running, one queued behind
#: it, so a worker never idles waiting for the parent to submit.
INFLIGHT_PER_WORKER = 2


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the batch execution layer.

    ``workers=None`` defers to :func:`default_workers` (the
    ``REPRO_WORKERS`` environment variable, else 1), which is how the CI
    matrix drives the whole test suite through the pool without touching
    every call site.  ``retries=None`` likewise defers to
    ``$REPRO_RETRIES`` (else :data:`~repro.parallel.faults.
    DEFAULT_RETRIES`); ``batch_timeout`` is in seconds, ``None`` waits
    forever.
    """

    workers: "int | None" = None
    batch_size: int = 64
    retries: "int | None" = None
    batch_timeout: "float | None" = None
    backoff_s: float = 0.05
    #: Multiprocessing start method for the pool ("fork"/"spawn"/
    #: "forkserver"); None defers to the platform default.  Output and
    #: merged telemetry are identical either way -- spawn just pays a
    #: slower worker boot, which the fault/exemplar tests exercise.
    start_method: "str | None" = None
    #: Kernel selection ("scalar"/"vector"); None defers to
    #: ``$REPRO_KERNELS`` (else scalar).  "vector" routes seeding through
    #: the batched kernels (:mod:`repro.kernels`) wherever the engine is
    #: eligible -- output stays byte-identical at any worker count.
    kernels: "str | None" = None

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        return default_workers()

    def resolved_kernels(self) -> str:
        return resolve_kernels(self.kernels)

    def resolved_policy(self) -> RetryPolicy:
        from repro.parallel.faults import RetryPolicy, default_retries

        retries = (self.retries if self.retries is not None
                   else default_retries())
        return RetryPolicy(retries=max(0, retries),
                           backoff_s=self.backoff_s,
                           batch_timeout=self.batch_timeout)


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


def _seed_line(name: str, seed: Any) -> str:
    """One seed as the CLI's TSV line."""
    hits = ",".join(map(str, seed.hits))
    return (f"{name}\t{seed.read_start}\t{seed.length}"
            f"\t{seed.hit_count}\t{hits}\n")


def _extension(task: str, vector: bool) -> "tuple[Any, Any, Any]":
    """What an ``align`` / ``align-pe`` runner is built from: the
    aligner class, the batched traceback kernel (vector only) and the
    pair aligner class (``align-pe`` only).  A ``seed`` run never calls
    this, so it loads no extension layer; the pool path calls it in the
    parent before the pool exists, so a forked worker's own call finds
    every module already loaded."""
    from repro.extend.pipeline import ReadAligner

    tb_batch = paired = None
    if vector:
        from repro.kernels.traceback import batched_sw_traceback
        tb_batch = batched_sw_traceback
    if task == "align-pe":
        from repro.extend.paired import PairedAligner
        paired = PairedAligner
    return ReadAligner, tb_batch, paired


class _BatchRunner:
    """The per-batch body of every task: seed the batch, build the
    payload through the backend-neutral batch entry points, capture the
    reads' exemplars.

    ``kernels`` decides one thing only -- how a batch gets its seeds
    (one ``seed_batch`` sweep, or the ``seed_read`` oracle read by
    read).  Everything after seeding is the same code for both backends
    and runs identically observed or dark, in the serial loop and inside
    pool workers; the scalar backend stays the byte-identity oracle
    because it is this runner with the other seeder and ``tb_batch=None``
    (one ``banded_sw_traceback`` per lane).
    """

    def __init__(self, engine: ErtSeedingEngine, task: str,
                 options: "dict[str, Any]") -> None:
        self.engine = engine
        self.task = task
        self.params: SeedingParams = options.get("params") \
            or SeedingParams()
        self.vector = options.get("kernels") == "vector"
        if task in ("align", "align-pe"):
            aligner, tb_batch, paired = _extension(task, self.vector)
            self.aligner = aligner(engine.index.reference, engine,
                                   params=self.params, tb_batch=tb_batch)
        if task == "align-pe":
            self.paired = paired(self.aligner,
                                 insert_mean=options["insert_mean"],
                                 insert_sd=options["insert_sd"])

    def __call__(self, batch: ReadBatch) -> "list[Any]":
        reads = batch.reads()
        self.engine.begin_batch(reads)
        names: "Sequence[str]" = batch.names
        probe = telemetry.read_probe()
        seeded, seed_ms, seed_counters, kernels = self._seed(reads, probe)
        payload: "list[Any]"
        if self.task == "seed":
            payload = [_seed_line(name, seed)
                       for name, result in zip(names, seeded)
                       for seed in result.all_seeds]
        elif self.task == "align":
            payload = self.aligner.align_sam_batch(
                reads, names, batch.qualities, seeded)
        else:
            names = [name.split("/")[0] for name in names[0::2]]
            payload = self.paired.align_pairs(reads, names,
                                              batch.qualities, seeded)
        if probe is None:
            return payload
        # Exemplar capture lives here, not in seed_read()/extend_batch():
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
                for key, value in {**row, **seed_counters(i)}.items():
                    counters[key] = counters.get(key, 0) + value
            return counters

        telemetry.record_reads(
            probe, list(names),
            shares.reshape(-1, group).sum(axis=1).tolist(), make_counters,
            task=self.task, kernels=kernels)
        return payload

    def _seed(self, reads: "list[Any]", probe: "int | None") -> Tuple[
            "list[Any]", Any, "Callable[[int], dict[str, int]]",
            "str | None"]:
        """Seed the batch: the results, each read's seeding wall ms and
        counter row (meaningful only under a live ``probe``), and the
        backend tag ``ert-repro explain`` replays an exemplar through.

        The vector sweep cannot probe per read (its hot loops are
        telemetry-call-free by construction): it counts per-read work
        into a :class:`~repro.kernels.stats.KernelBatchStats`, whose
        columns are the counter rows and whose ``walk_steps`` apportion
        the sweep's wall time.  The scalar oracle is measured read by
        read: probe readings and engine-counter deltas.  This is the one
        place in ``repro.parallel`` that decides -- and counts -- a
        decline of the vector kernels.
        """
        engine = self.engine
        if self.vector:
            reason = vector_decline_reason(engine)
            if reason is None:
                stats = KernelBatchStats(len(reads))
                results = seed_batch(engine, reads, self.params,
                                     stats=stats)
                return (results,
                        wall_shares(telemetry.probe_ms(probe),
                                    stats.walk_steps),
                        stats.read_counters, "vector")
            telemetry.count("kernels.fallback_scalar." + reason)
        results = []
        marks = [0.0]
        snaps = [engine.stats.as_dict()]
        for read in reads:
            results.append(seed_read(engine, read, self.params))
            if probe is not None:
                marks.append(telemetry.probe_ms(probe))
                snaps.append(engine.stats.as_dict())

        def deltas(i: int) -> "dict[str, int]":
            return {name: value - snaps[i].get(name, 0)
                    for name, value in snaps[i + 1].items()}

        return results, np.diff(marks), deltas, None


# ----------------------------------------------------------------------
# Worker lifecycle
# ----------------------------------------------------------------------

#: Per-process worker state, populated once by the pool initializer.
_WORKER: "dict[str, Any]" = {}


def _resolve_engine(spec: EngineSpec) -> ErtSeedingEngine:
    """The engine a spec names, in this process: a ``shm`` spec attaches
    the parent-owned segment (in a worker's initializer, and on the
    degraded in-process path, where the segment is still live); a
    ``local`` spec carries the engine itself."""
    kind = spec[0]
    if kind == "local":
        return spec[1]
    if kind == "shm":
        from repro.parallel.shm import attach_index

        _, name, size, gather_limit = spec
        with telemetry.recorder().scope("shm.attach", {"segment": name,
                                                       "bytes": size}):
            index = attach_index(name, size)
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
    # parent's epoch just below) can see the shm attach.
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

    With one worker (or a ``local`` spec) everything runs in-process over
    the same batch units -- the serial fast path.  Pool failures are
    classified, retried and degraded per :mod:`repro.parallel.pool`
    (imported here, in the parent, before any pool exists); when a
    typed error escapes this generator, every consumed prefix result was
    already byte-exact and no partial batch has been yielded.
    """
    workers = config.resolved_workers()
    if workers <= 1 or spec[0] == "local":
        yield from _serial_batches(spec, task, options, batches)
        return
    from repro.parallel.pool import pool_map

    yield from pool_map(spec, task, options, list(batches), config,
                        workers)


def _map_reads(engine: ErtSeedingEngine, task: str,
               options: "dict[str, Any]",
               reads: "Sequence[object]", config: ParallelConfig,
               chunk_size: int) -> "tuple[list[Any], EngineStats]":
    """The body of every entry point: pack ``reads`` into batches of
    ``chunk_size``, hand the engine to the workers, map, and merge the
    per-batch results in submission order.

    One worker runs on ``engine`` itself.  A pool gets the engine's
    index through shared memory (published once, attached zero-copy),
    never once per batch.  Payloads concatenate, stats fold into one
    :class:`EngineStats`, and worker snapshots merge in submission
    order.
    """
    batches = [pack_batch(chunk) for chunk in iter_chunks(reads, chunk_size)]
    payload: "list[Any]" = []
    stats = EngineStats()
    with ExitStack() as stack:
        spec: EngineSpec
        if config.resolved_workers() <= 1:
            spec = ("local", engine)
        else:
            from repro.parallel.shm import SharedIndexBuffer

            shared = stack.enter_context(SharedIndexBuffer(engine.index))
            spec = ("shm", shared.name, shared.size, engine.gather_limit)
        for items, stat_delta, snap in map_batches(
                spec, task, options, batches, config):
            payload.extend(items)
            stats.add_dict(stat_delta)
            if snap is not None:
                telemetry.merge_snapshot(snap)
    return payload, stats


# ----------------------------------------------------------------------
# High-level entry points (what the CLI calls)
# ----------------------------------------------------------------------


def seed_reads(index: ErtIndex, reads: "Sequence[object]",
               params: "SeedingParams | None" = None,
               config: "ParallelConfig | None" = None,
               gather_limit: int = 500) \
        -> "tuple[list[str], EngineStats]":
    """Seed ``reads`` in batches; returns the CLI's TSV lines (one per
    seed, newline-terminated, in input order) plus aggregated stats."""
    config = config or ParallelConfig()
    return _map_reads(
        ErtSeedingEngine(index, gather_limit=gather_limit), "seed",
        {"params": params, "kernels": config.resolved_kernels()},
        reads, config, config.batch_size)


def align_reads(index: ErtIndex, reads: "Sequence[object]",
                params: "SeedingParams | None" = None,
                config: "ParallelConfig | None" = None) \
        -> "tuple[list[SamRecord], EngineStats]":
    """Align ``reads`` to SAM records, byte-identical to the serial
    per-read loop, in input order."""
    config = config or ParallelConfig()
    return _map_reads(
        ErtSeedingEngine(index), "align",
        {"params": params, "kernels": config.resolved_kernels()},
        reads, config, config.batch_size)


def align_pairs(index: ErtIndex, reads: "Sequence[object]",
                params: "SeedingParams | None" = None,
                insert_mean: int = 350, insert_sd: int = 50,
                config: "ParallelConfig | None" = None) \
        -> "tuple[list[SamRecord], EngineStats]":
    """Align interleaved paired-end ``reads`` (mate1, mate2, ...).

    Batching happens at pair granularity (``batch_size`` pairs per
    batch) so mates never split across workers.
    """
    if len(reads) % 2:
        raise ValueError("interleaved read set must hold an even count")
    config = config or ParallelConfig()
    return _map_reads(
        ErtSeedingEngine(index), "align-pe",
        {"params": params, "kernels": config.resolved_kernels(),
         "insert_mean": insert_mean, "insert_sd": insert_sd},
        reads, config, 2 * config.batch_size)
