"""The worker pool behind ``--workers > 1``: spawn, probe, in-order
merge, crash recovery.

:func:`repro.parallel.scheduler.map_batches` imports this module when a
run asks for more than one worker -- in the parent, before the pool is
built -- and a one-worker run never does: ``multiprocessing``,
``concurrent.futures``, the shared-memory owner and the structured
logger are what a pool needs and nothing a batch executes.  What a
worker *runs* (``_worker_init``, ``_run_batch``) lives in the scheduler
module, which the parent has fully imported by then, so a forked worker
imports nothing.

Fault model (see :mod:`repro.parallel.faults` and docs/performance.md):

* failures are classified into typed errors -- a dead worker or expired
  per-batch timeout is *retryable* (batches are pure functions), an
  exception raised by the task itself or a pickling failure is
  deterministic and propagates immediately;
* on a retryable failure the pool is killed, the scheduler backs off
  exponentially, respawns, and resubmits every unconsumed batch in
  submission order -- the merge point never moves, so output stays
  byte-identical to serial across any number of recoveries;
* every freshly (re)spawned pool is probed with a no-op task before
  batches flow, so "the pool cannot be built" (e.g. its initializer
  always dies) is detected deterministically; in that case the remaining
  batches degrade to the in-process serial path with a
  ``RuntimeWarning`` and a ``parallel.fallback_serial`` telemetry
  counter rather than failing the run.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from pickle import PicklingError
from typing import Any, Iterator, Sequence

from repro import telemetry
from repro.logging import get_logger
from repro.parallel.batch import ReadBatch
from repro.parallel.faults import (
    BatchSerializationError,
    BatchTaskError,
    BatchTimeoutError,
    ParallelExecutionError,
    PoolUnavailableError,
    WorkerCrashError,
)
from repro.parallel.scheduler import (
    INFLIGHT_PER_WORKER,
    BatchResult,
    EngineSpec,
    ParallelConfig,
    _extension,
    _run_batch,
    _serial_batches,
    _worker_init,
)

#: Structured operational events (pool lifecycle, faults, degradation);
#: a no-op unless the run configured `repro.logging` (--log-jsonl).
_log = get_logger("parallel.scheduler")


def _worker_ready() -> bool:
    """No-op probe task: completing it proves the pool's workers came up
    (their initializer ran) and the result channel works."""
    return True


class _PoolManager:
    """Owns the executor across respawns.

    One instance spans the whole run: it builds the initial pool and
    kills/rebuilds it after a retryable failure.  Every (re)spawn is
    probed with a no-op task before batches flow -- a pool whose
    initializer always dies is indistinguishable from one that cannot
    be constructed, and the probe converts both into a deterministic
    :class:`PoolUnavailableError` instead of letting init failures
    masquerade as mid-batch worker crashes.
    """

    def __init__(self, workers: int, spec: EngineSpec, task: str,
                 options: "dict[str, Any]", telemetry_on: bool,
                 events_epoch: "int | None" = None,
                 start_method: "str | None" = None) -> None:
        self._workers = workers
        self._task = task
        self._initargs = (spec, task, options, telemetry_on, events_epoch)
        self._start_method = start_method
        self._pool: "ProcessPoolExecutor | None" = None

    def spawn(self) -> None:
        try:
            mp_context = (multiprocessing.get_context(self._start_method)
                          if self._start_method is not None else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=mp_context,
                initializer=_worker_init, initargs=self._initargs)
            self._pool.submit(_worker_ready).result()
        except Exception as exc:
            self.kill()
            _log.error("pool.unavailable", workers=self._workers,
                       task=self._task, error=str(exc))
            raise PoolUnavailableError(
                f"cannot build a working {self._workers}-worker pool: "
                f"{exc}") from exc
        _log.info("pool.spawn", workers=self._workers, task=self._task,
                  start_method=(self._start_method
                                or multiprocessing.get_start_method()))

    def submit(self, batch: ReadBatch,
               batch_index: int) -> "Future[BatchResult]":
        """Submit one batch; a submission-time pool failure comes back
        as a failed future so the merge loop owns all classification."""
        assert self._pool is not None
        try:
            return self._pool.submit(_run_batch, batch, batch_index)
        except (BrokenExecutor, RuntimeError) as exc:
            failed: "Future[BatchResult]" = Future()
            failed.set_exception(exc)
            return failed

    def kill(self) -> None:
        """Tear the pool down without waiting: cancel queued work and
        terminate worker processes outright, so a wedged batch cannot
        stall recovery (or leak a worker holding the index mapping)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            try:
                proc.kill()
            except (OSError, ValueError, AttributeError):
                pass  # already dead or reaped
        for proc in processes:
            try:
                proc.join(timeout=1.0)
            except (OSError, ValueError, AssertionError):
                pass

    def respawn(self) -> None:
        self.kill()
        self.spawn()


class _PendingBatch:
    """Submission-order bookkeeping for one in-flight batch."""

    __slots__ = ("index", "batch", "failures", "future")

    def __init__(self, index: int, batch: ReadBatch,
                 future: "Future[BatchResult]") -> None:
        self.index = index
        self.batch = batch
        self.failures = 0
        self.future = future


def _classify_failure(exc: BaseException,
                      batch_index: int) -> ParallelExecutionError:
    """Map a raw executor exception to the typed taxonomy."""
    if isinstance(exc, FuturesTimeoutError):
        return BatchTimeoutError(
            f"batch {batch_index} timed out", batch_index)
    if isinstance(exc, BrokenExecutor):
        return WorkerCrashError(
            f"worker pool broke while running batch {batch_index}: {exc}",
            batch_index)
    if isinstance(exc, PicklingError):
        return BatchSerializationError(
            f"batch {batch_index} failed to cross the process boundary: "
            f"{exc}", batch_index)
    return BatchTaskError(
        f"task raised inside the worker on batch {batch_index}: "
        f"{exc!r}", batch_index)


def _degrade_to_serial(spec: EngineSpec, task: str,
                       options: "dict[str, Any]",
                       batches: "Sequence[ReadBatch]",
                       cause: ParallelExecutionError) \
        -> "Iterator[BatchResult]":
    """Graceful degradation: finish the remaining batches in-process.

    Output is unaffected -- the serial loop runs the same batch units
    through the same runners -- only throughput degrades, which is worth
    a warning and a counter but never a failed run.
    """
    warnings.warn(
        f"worker pool unavailable ({cause}); degrading to in-process "
        f"serial execution for {len(batches)} remaining batch(es)",
        RuntimeWarning, stacklevel=3)
    telemetry.count("parallel.fallback_serial")
    _log.error("pool.degrade_serial", task=task, reason=str(cause),
               remaining_batches=len(batches))
    return _serial_batches(spec, task, options, batches)


def pool_map(spec: EngineSpec, task: str, options: "dict[str, Any]",
             batches: "Sequence[ReadBatch]",
             config: ParallelConfig, workers: int) \
        -> "Iterator[BatchResult]":
    """The fault-tolerant pool path behind :func:`map_batches`."""
    # Load, here in the parent, what this task's runners execute and a
    # one-worker run may not have needed yet: a forked worker then finds
    # every module in place and imports nothing.
    vector = options.get("kernels") == "vector"
    if task != "seed":
        _extension(task, vector)
    if not vector:
        # The scalar cursor lays out the trees it decodes.
        import repro.core.layout  # noqa: F401
    policy = config.resolved_policy()
    recorder = telemetry.recorder()
    # Ship the parent's trace epoch through the pool initializer so
    # worker events land on the same timeline (the monotonic clock is
    # system-wide on the platforms we run on).
    events_epoch = recorder.epoch_ns if recorder.recording else None
    manager = _PoolManager(workers, spec, task, options,
                           telemetry.enabled(), events_epoch,
                           start_method=config.start_method)
    try:
        manager.spawn()
    except PoolUnavailableError as exc:
        yield from _degrade_to_serial(spec, task, options, batches, exc)
        return
    max_inflight = INFLIGHT_PER_WORKER * workers
    pending: "deque[_PendingBatch]" = deque()
    next_index = 0
    try:
        while next_index < len(batches) or pending:
            while next_index < len(batches) and len(pending) < max_inflight:
                batch = batches[next_index]
                recorder.instant("parallel.submit", {"batch": next_index})
                pending.append(_PendingBatch(
                    next_index, batch, manager.submit(batch, next_index)))
                next_index += 1
                recorder.counter("parallel.inflight", len(pending))
            head = pending[0]
            try:
                result = head.future.result(timeout=policy.batch_timeout)
            except (FuturesTimeoutError, BrokenExecutor,
                    PicklingError) as exc:
                failure = _classify_failure(exc, head.index)
            except ParallelExecutionError:
                raise
            except Exception as exc:
                raise _classify_failure(exc, head.index) from exc
            else:
                pending.popleft()
                recorder.instant("parallel.merge", {"batch": head.index})
                recorder.counter("parallel.inflight", len(pending))
                yield result
                continue
            # -- recovery: failure surfaced at the merge point ---------
            head.failures += 1
            recorder.instant("parallel.fault",
                             {"batch": head.index,
                              "kind": type(failure).__name__})
            _log.warn("batch.fault", batch=head.index,
                      kind=type(failure).__name__, attempt=head.failures,
                      retryable=failure.retryable, error=str(failure))
            if isinstance(failure, BatchTimeoutError):
                telemetry.count("parallel.batch_timeouts")
            elif isinstance(failure, WorkerCrashError):
                telemetry.count("parallel.worker_crashes")
            if not failure.retryable or head.failures >= policy.max_attempts:
                raise failure
            with telemetry.span("parallel.recovery"):
                telemetry.count("parallel.retries")
                telemetry.count("parallel.pool_respawns")
                time.sleep(policy.delay(head.failures))
                recorder.instant("parallel.respawn", {"workers": workers})
                _log.info("pool.respawn", workers=workers,
                          after_batch=head.index,
                          backoff_s=policy.delay(head.failures))
                try:
                    manager.respawn()
                except PoolUnavailableError as exc:
                    remaining = [entry.batch for entry in pending] \
                        + list(batches[next_index:])
                    yield from _degrade_to_serial(spec, task, options,
                                                  remaining, exc)
                    return
                for entry in pending:
                    entry.future = manager.submit(entry.batch, entry.index)
    finally:
        manager.kill()

