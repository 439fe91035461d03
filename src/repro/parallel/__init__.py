"""Batch execution layer: one mapped index file, worker-pool pipelines.

The paper's throughput comes from 64 seeding lanes sharing one ERT
(§IV); this package is the host-software analogue.  The parent loads
the index (an index built in memory is saved to a temporary file
first), and N worker processes map that same file read-only
(:func:`repro.core.io.load_ert`), so the page cache holds one copy and
every array is a zero-copy view into it.  Reads stream through a
bounded, order-preserving batch scheduler
(:mod:`repro.parallel.scheduler`), so the merged output is
byte-identical to a serial run, and per-worker engine stats plus
telemetry snapshots fold back into the parent.

Entry points:

* :func:`seed_reads` / :func:`align_reads` / :func:`align_pairs` -- the
  CLI's ``seed`` / ``align`` / ``align-pe`` workloads;
* :class:`ParallelConfig` / :func:`default_workers` -- ``--workers`` /
  ``--batch-size`` / ``$REPRO_WORKERS`` resolution;
* :mod:`repro.parallel.pool` -- the worker pool itself (spawn, probe,
  in-order merge, crash recovery), loaded only when a run asks for more
  than one worker;
* :mod:`repro.parallel.faults` -- the typed failure taxonomy
  (:class:`ParallelExecutionError` and friends) and :class:`RetryPolicy`
  behind worker-crash recovery, per-batch timeouts and the serial
  degradation path (``--retries`` / ``--batch-timeout`` /
  ``$REPRO_RETRIES``);
* :class:`SharedIndexBuffer` / :func:`attach_index`
  (:mod:`repro.parallel.shm`) -- an index frame in a shared-memory
  segment; no run path uses it (the benchmark's traced replay does).

Checker rule ERT008 keeps this package the *only* place that constructs
``ProcessPoolExecutor`` or ``SharedMemory`` objects, so worker lifecycle
(initialization, telemetry aggregation, cleanup) has exactly one
implementation.  See ``docs/performance.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.parallel.batch import ReadBatch, iter_chunks, pack_batch
    from repro.parallel.faults import (
        BatchSerializationError,
        BatchTaskError,
        BatchTimeoutError,
        ParallelExecutionError,
        PoolUnavailableError,
        RetryPolicy,
        WorkerCrashError,
        default_retries,
    )
    from repro.parallel.scheduler import (
        ParallelConfig,
        align_pairs,
        align_reads,
        default_workers,
        map_batches,
        seed_reads,
    )
    from repro.parallel.shm import SharedIndexBuffer, attach_index

__all__ = [
    "BatchSerializationError",
    "BatchTaskError",
    "BatchTimeoutError",
    "ParallelConfig",
    "ParallelExecutionError",
    "PoolUnavailableError",
    "ReadBatch",
    "RetryPolicy",
    "SharedIndexBuffer",
    "WorkerCrashError",
    "align_pairs",
    "align_reads",
    "attach_index",
    "default_retries",
    "default_workers",
    "iter_chunks",
    "map_batches",
    "pack_batch",
    "seed_reads",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.parallel.batch": ("ReadBatch", "iter_chunks", "pack_batch"),
    "repro.parallel.faults": (
        "BatchSerializationError", "BatchTaskError", "BatchTimeoutError",
        "ParallelExecutionError", "PoolUnavailableError", "RetryPolicy",
        "WorkerCrashError", "default_retries"),
    "repro.parallel.scheduler": (
        "ParallelConfig", "align_pairs", "align_reads", "default_workers",
        "map_batches", "seed_reads"),
    "repro.parallel.shm": ("SharedIndexBuffer", "attach_index"),
})
