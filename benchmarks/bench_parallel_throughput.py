"""Tracked throughput benchmark for the repro.parallel batch engine.

Emits ``BENCH_parallel.json`` at the repository root -- a machine-
readable record of reads/sec for the batch API's serial fast path and
the worker pool at 1/2/4 workers, plus a batch-size sweep and the
vector-kernel legs -- so the performance trajectory of the parallel
layer is tracked across PRs.

Numbers are machine-dependent by nature: ``cpu_count`` and a platform
fingerprint are recorded in the payload, and pool speedups only
materialize with more than one core.  On a single-core host the
multi-worker sweep is not a measurement at all (every pool
configuration timeshares one CPU), so those entries are skipped and
annotated ``"invalid_on_this_host"`` -- the run-ledger's metric
flattening (:func:`repro.ledger.flatten_metrics`) drops such subtrees
instead of recording misleading numbers.  The assertions pin what must
hold everywhere -- byte-identical output across every configuration
and a vector walk clearly ahead of the scalar serial path -- and leave
scaling claims to the JSON trajectory.
"""

import json
import os
import time
from pathlib import Path

from repro.ledger import env_fingerprint
from repro.parallel import ParallelConfig, seed_reads

from conftest import record_result

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_parallel.json"

WORKER_COUNTS = (1, 2, 4)
BATCH_SIZES = (16, 64, 256)
ROUNDS = 3

CPU_COUNT = os.cpu_count() or 1


def _time_best(fn, rounds=ROUNDS):
    """Best-of-N wall time and the last result (min filters scheduler
    noise, which dwarfs variance on a loaded CI box)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_parallel_throughput_trajectory(ert_index, reads, params):
    n_reads = len(reads)

    def run(workers, batch_size=64, kernels=None):
        config = ParallelConfig(workers=workers, batch_size=batch_size,
                                kernels=kernels)
        lines, _stats = seed_reads(ert_index, reads, params, config)
        return lines

    serial_s, serial_lines = _time_best(lambda: run(1), rounds=5)

    by_workers = {1: {"seconds": serial_s,
                      "reads_per_sec": n_reads / serial_s}}
    baseline_lines = serial_lines
    for workers in WORKER_COUNTS:
        if workers == 1:
            continue
        if workers > 1 and CPU_COUNT <= 1:
            # Timesharing a pool on one core measures contention, not
            # throughput; still run once to assert output identity.
            lines = run(workers)
            assert baseline_lines is None or lines == baseline_lines, \
                f"workers={workers} changed the output"
            by_workers[workers] = {"skipped": "invalid_on_this_host"}
            continue
        elapsed, lines = _time_best(lambda w=workers: run(w))
        if baseline_lines is None:
            baseline_lines = lines
        assert lines == baseline_lines, \
            f"workers={workers} changed the output"
        by_workers[workers] = {
            "seconds": elapsed,
            "reads_per_sec": n_reads / elapsed,
        }

    by_batch = {}
    for batch_size in BATCH_SIZES:
        elapsed, lines = _time_best(
            lambda b=batch_size: run(workers=1, batch_size=b))
        assert lines == baseline_lines, \
            f"batch_size={batch_size} changed the output"
        by_batch[batch_size] = {
            "seconds": elapsed,
            "reads_per_sec": n_reads / elapsed,
        }

    # Vector-kernel legs: the batched ERT walk behind --kernels vector,
    # serial and at the pool maximum, byte-identical to the scalar
    # oracle by contract (asserted here like every other config).
    by_vector = {}
    vector_workers = [1] + [w for w in WORKER_COUNTS
                            if w > 1 and CPU_COUNT > 1][-1:]
    for workers in vector_workers:
        elapsed, lines = _time_best(
            lambda w=workers: run(w, batch_size=256, kernels="vector"))
        assert lines == baseline_lines, \
            f"kernels=vector workers={workers} changed the output"
        by_vector[workers] = {
            "seconds": elapsed,
            "reads_per_sec": n_reads / elapsed,
        }

    serial_rps = by_workers[1]["reads_per_sec"]
    measured = {w: row for w, row in by_workers.items()
                if "reads_per_sec" in row}
    payload = {
        "benchmark": "parallel_throughput",
        "workload": {
            "reads": n_reads,
            "read_length": int(reads[0].size),
            "genome_length": len(ert_index.reference),
            "k": ert_index.config.k,
        },
        "cpu_count": CPU_COUNT,
        "env": env_fingerprint(),
        "note": ("pool speedups require cpu_count > 1; compare "
                 "reads_per_sec across PRs on like-for-like hardware"),
        "workers": {str(w): row for w, row in by_workers.items()},
        "batch_size_sweep_workers1": {
            str(b): row for b, row in by_batch.items()},
        "vector_kernels_batch256": {
            str(w): row for w, row in by_vector.items()},
        "speedup_vs_serial": {
            str(w): row["reads_per_sec"] / serial_rps
            for w, row in measured.items()},
        "vector_serial_vs_scalar_serial":
            by_vector[1]["reads_per_sec"] / serial_rps,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")

    rows = [f"{'config':<24}{'reads/sec':>12}{'vs serial':>12}"]
    for workers, row in by_workers.items():
        if "reads_per_sec" not in row:
            rows.append(f"{f'{workers} worker(s)':<24}"
                        f"{'(skipped: 1 cpu)':>12}{'-':>12}")
            continue
        rows.append(f"{f'{workers} worker(s)':<24}"
                    f"{row['reads_per_sec']:>12.1f}"
                    f"{row['reads_per_sec'] / serial_rps:>12.2f}")
    for workers, row in by_vector.items():
        rows.append(f"{f'vector, {workers} worker(s)':<24}"
                    f"{row['reads_per_sec']:>12.1f}"
                    f"{row['reads_per_sec'] / serial_rps:>12.2f}")
    record_result(
        "parallel_throughput",
        f"parallel seeding throughput (cpu_count={CPU_COUNT})\n"
        + "\n".join(rows))

    # What must hold on any machine: identical output (asserted above)
    # and sane positive rates.
    assert all(row["reads_per_sec"] > 0 for row in measured.values())
    # The batched vector walk must clearly beat the scalar serial path
    # (bench_kernels.py gates the full 3x acceptance floor).
    assert by_vector[1]["reads_per_sec"] >= 1.5 * serial_rps
