"""Failure taxonomy and retry policy of the batch scheduler.

The paper's bit-equivalence claim (§V) only survives production traffic
if a worker dying mid-batch cannot corrupt or reorder output.  This
module gives the scheduler a *typed* failure model:

* every way a pool can fail maps to exactly one
  :class:`ParallelExecutionError` subclass, each carrying the submission
  index of the batch that failed;
* *environmental* failures (a crashed worker, an expired batch timeout)
  are ``retryable`` -- batches are pure functions of their inputs, so
  resubmitting one to a respawned pool is always safe;
* *deterministic* failures (an exception raised by the task itself, an
  unpicklable payload) are not -- rerunning them burns the retry budget
  to reproduce the same defect, so they propagate on first occurrence;
* :class:`RetryPolicy` bounds the recovery work: per-batch attempt
  budget, exponential backoff between respawns, and an optional
  per-batch timeout.

Checker rule ERT009 enforces the routing mechanically: a broad
``except`` around pool submission or result collection must re-raise
through one of these types.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: Fallback retry budget when neither ``ParallelConfig.retries`` nor
#: ``$REPRO_RETRIES`` decides: survive two transient faults per batch.
DEFAULT_RETRIES = 2

#: Growth of the sleep between successive respawns after one batch's
#: repeated failures.
BACKOFF_FACTOR = 2.0


class ParallelExecutionError(RuntimeError):
    """Base of every failure the batch scheduler can surface.

    ``batch_index`` is the failing batch's submission index (``None``
    when the failure is not attributable to one batch, e.g. the pool
    could not be built at all).
    """

    #: Whether resubmitting the batch to a fresh pool can succeed.
    retryable: bool = False

    def __init__(self, message: str,
                 batch_index: "int | None" = None) -> None:
        super().__init__(message)
        self.batch_index = batch_index


class WorkerCrashError(ParallelExecutionError):
    """A worker process died (SIGKILL, OOM kill, segfault, or an
    initializer failure) and the executor reported a broken pool."""

    retryable = True


class BatchTimeoutError(ParallelExecutionError):
    """A batch's result did not arrive within the configured per-batch
    timeout; the pool is presumed wedged and is killed before retry."""

    retryable = True


class BatchSerializationError(ParallelExecutionError):
    """A batch or its result failed to pickle across the process
    boundary.  Deterministic: the same payload fails the same way on
    every attempt, so this is never retried."""

    retryable = False


class BatchTaskError(ParallelExecutionError):
    """The task itself raised inside the worker.  Deterministic by the
    engine-purity contract (same batch, same index, same exception), so
    this is never retried; the original exception rides as
    ``__cause__``."""

    retryable = False


class PoolUnavailableError(ParallelExecutionError):
    """The worker pool could not be built (or rebuilt after a crash).
    The scheduler reacts by degrading to the in-process serial path
    rather than failing the run."""

    retryable = False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the scheduler's recovery work.

    A batch is attempted at most ``1 + retries`` times; between attempts
    the scheduler sleeps ``backoff_s * backoff_factor ** (failures - 1)``
    seconds, so a flapping pool backs off exponentially instead of
    hot-looping respawns.  ``batch_timeout`` (seconds, ``None`` = wait
    forever) bounds how long the in-order merge waits for the head
    batch's result.
    """

    retries: int = DEFAULT_RETRIES
    backoff_s: float = 0.05
    backoff_factor: float = BACKOFF_FACTOR
    batch_timeout: "float | None" = None

    @property
    def max_attempts(self) -> int:
        return 1 + max(0, self.retries)

    def delay(self, failures: int) -> float:
        """Backoff before the next attempt after ``failures`` failures."""
        return self.backoff_s * self.backoff_factor ** max(0, failures - 1)


def default_retries() -> int:
    """Retry budget when unspecified: ``$REPRO_RETRIES``, else
    :data:`DEFAULT_RETRIES`.  Garbage values fall back to the default;
    negative values clamp to 0 (fail on first fault)."""
    value = os.environ.get("REPRO_RETRIES", "")
    try:
        return max(0, int(value))
    except ValueError:
        return DEFAULT_RETRIES
