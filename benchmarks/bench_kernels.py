"""Scalar-vs-vector traceback benchmark and the kernel speedup gate.

Times ``align`` under the batch engine's two traceback kernels
(``--kernels scalar`` -- one ``banded_sw_traceback`` per lane -- and
``--kernels vector`` -- the batched row-scan traceback,
``batched_sw_traceback``, swept over the (read, window) lanes of a
whole batch) on a read subset of the standard 30 kbp / 500-read
workload, asserts byte-identical SAM, and emits ``BENCH_kernels.json``
at the repository root.  Both flags seed through the same engine, so
seeding is not compared.  The gate is the test's own assert: vector
``align`` must run at least ``MIN_ALIGN_SPEEDUP`` times as fast as
scalar.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.parallel import ParallelConfig, align_reads

from conftest import record_result

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"

BENCHMARK = "kernels_throughput"
N_ALIGN = 120
#: Acceptance floor for the SAM path: the packed row-scan traceback
#: (the lanes of a whole 64-read batch, at most 128 per sweep) measured
#: 5.0-6.4x the scalar traceback over three runs, both seeding through
#: the same engine, on a 2-vCPU host whose speed drifts up to 2x within
#: a run; the floor leaves that drift as margin.
MIN_ALIGN_SPEEDUP = 3.0


def _time_best(fn, rounds):
    """Best-of-N wall time and the last result (min filters scheduler
    noise, which dwarfs variance on a loaded CI box)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_kernel_throughput_gate(ert_index, reads, params):
    def align(kernels):
        config = ParallelConfig(workers=1, batch_size=64, kernels=kernels)
        records, _stats = align_reads(ert_index, reads[:N_ALIGN], params,
                                      config)
        return [rec.to_line() for rec in records]

    align_rps = {}
    sam_oracle = None
    for kernels in ("scalar", "vector"):
        elapsed, sam = _time_best(lambda k=kernels: align(k), rounds=2)
        if sam_oracle is None:
            sam_oracle = sam
        assert sam == sam_oracle, \
            f"kernels={kernels} changed the SAM output"
        align_rps[kernels] = N_ALIGN / elapsed

    align_speedup = align_rps["vector"] / align_rps["scalar"]

    payload = {
        "benchmark": BENCHMARK,
        "workload": {
            "reads": len(reads),
            "read_length": int(reads[0].size),
            "genome_length": len(ert_index.reference),
            "k": ert_index.config.k,
            "align_reads": N_ALIGN,
        },
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "align": {kernels: {"reads_per_sec": rps}
                  for kernels, rps in align_rps.items()},
        "align_speedup_vector_vs_scalar": align_speedup,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")

    rows = [f"{'config':<28}{'reads/sec':>12}{'vs scalar':>12}"]
    for kernels in ("scalar", "vector"):
        rps = align_rps[kernels]
        rows.append(f"{f'align {kernels}':<28}{rps:>12.1f}"
                    f"{rps / align_rps['scalar']:>12.2f}")
    record_result(
        "kernels_throughput",
        "scalar vs vector traceback (identical SAM asserted)\n"
        + "\n".join(rows)
        + f"\nalign speedup {align_speedup:.2f}x")

    # What must hold on any machine: identical output (asserted above)
    # and the acceptance speedup on the SAM path.
    assert align_speedup >= MIN_ALIGN_SPEEDUP, \
        f"vector align speedup {align_speedup:.2f}x below the " \
        f"{MIN_ALIGN_SPEEDUP:.1f}x acceptance floor"
