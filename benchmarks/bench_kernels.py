"""Scalar-vs-vector kernel benchmark and the run-ledger gate.

Times the batch engine's two kernel backends (``--kernels scalar`` --
the per-read oracle -- and ``--kernels vector`` -- the arena seeding
engine plus the packed row-scan Smith-Waterman) on the standard
30 kbp / 500-read workload, asserts byte-identical output, and emits
``BENCH_kernels.json`` at the repository root.

Unlike the other benchmarks this one also *records itself* into the
run ledger (``benchmarks/ledger.jsonl``): one manifest for the scalar
oracle, then one for the vector kernels, under the single benchmark
name ``kernels_throughput``.  ``ert-repro ledger diff`` compares the
last two runs of a benchmark, so after this benchmark runs the diff
reads "scalar -> vector" -- with ``--threshold 0.0`` the CI gate fails
whenever the vector kernels are not strictly faster than the oracle
they replace.

Seeding is timed at two batch sizes because the vector path amortizes
per-batch setup (``begin_batch``'s code packing) over the batch; the
headline speedup compares each backend's best configuration.  The alignment leg runs on a read
subset, asserts byte-identical SAM, and -- now that the vector path
routes CIGAR production through the batched row-scan traceback
(``batched_sw_traceback``, swept over the (read, window) lanes of a
whole batch) -- its ``align.reads_per_sec`` is a gated ledger metric
alongside seeding: the ``--threshold 0.0`` diff fails whenever vector
``align`` is not strictly faster than scalar on this workload.
"""

import json
import time
from pathlib import Path

from repro.ledger import append_record, build_record, env_fingerprint
from repro.parallel import ParallelConfig, align_reads, seed_reads

from conftest import record_result

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"
LEDGER_PATH = REPO_ROOT / "benchmarks" / "ledger.jsonl"

BENCHMARK = "kernels_throughput"
BATCH_SIZES = (64, 256)
ROUNDS = 3
N_ALIGN = 120
#: Acceptance floor: vector seeding throughput vs the scalar oracle,
#: best batch size each (ISSUE 8 requires >= 3x on this workload).
MIN_SEED_SPEEDUP = 3.0
#: Acceptance floor for the SAM path: batched seeding plus the packed
#: row-scan traceback (the lanes of a whole 64-read batch, at most 128
#: per sweep) measured 11.0-12.8x the scalar aligner over three runs on
#: a host whose speed drifts up to 2x within a run; the floor leaves
#: that drift as margin.  The ledger gate additionally requires > 1.0.
MIN_ALIGN_SPEEDUP = 3.0


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


def test_kernel_throughput_ledger_gate(ert_index, reads, params):
    n_reads = len(reads)

    def seed(kernels, batch_size):
        config = ParallelConfig(workers=1, batch_size=batch_size,
                                kernels=kernels)
        lines, _stats = seed_reads(ert_index, reads, params, config)
        return lines

    def align(kernels):
        config = ParallelConfig(workers=1, batch_size=64, kernels=kernels)
        records, _stats = align_reads(ert_index, reads[:N_ALIGN], params,
                                      config)
        return [rec.to_line() for rec in records]

    seed_rps = {}          # kernels -> {batch_size: reads/sec}
    oracle_lines = None
    for kernels in ("scalar", "vector"):
        seed_rps[kernels] = {}
        for batch_size in BATCH_SIZES:
            elapsed, lines = _time_best(
                lambda k=kernels, b=batch_size: seed(k, b))
            if oracle_lines is None:
                oracle_lines = lines
            assert lines == oracle_lines, \
                f"kernels={kernels} batch_size={batch_size} changed " \
                f"the seeding output"
            seed_rps[kernels][batch_size] = n_reads / elapsed

    align_rps = {}
    sam_oracle = None
    for kernels in ("scalar", "vector"):
        elapsed, sam = _time_best(lambda k=kernels: align(k), rounds=2)
        if sam_oracle is None:
            sam_oracle = sam
        assert sam == sam_oracle, \
            f"kernels={kernels} changed the SAM output"
        align_rps[kernels] = N_ALIGN / elapsed

    best_seed = {k: max(rps.values()) for k, rps in seed_rps.items()}
    seed_speedup = best_seed["vector"] / best_seed["scalar"]
    align_speedup = align_rps["vector"] / align_rps["scalar"]

    payload = {
        "benchmark": BENCHMARK,
        "workload": {
            "reads": n_reads,
            "read_length": int(reads[0].size),
            "genome_length": len(ert_index.reference),
            "k": ert_index.config.k,
            "align_reads": N_ALIGN,
        },
        "env": env_fingerprint(),
        "seeding": {
            kernels: {str(b): {"reads_per_sec": rps}
                      for b, rps in by_batch.items()}
            for kernels, by_batch in seed_rps.items()},
        "align": {kernels: {"reads_per_sec": rps}
                  for kernels, rps in align_rps.items()},
        "seed_speedup_vector_vs_scalar": seed_speedup,
        "align_speedup_vector_vs_scalar": align_speedup,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")

    # Two ledger manifests -- scalar first, vector second -- so the
    # benchmark's "last two runs" always read previous=scalar,
    # current=vector and `ert-repro ledger diff` gates on the vector
    # kernels beating the oracle.
    workload = payload["workload"]
    for kernels in ("scalar", "vector"):
        metrics = {"seeding.reads_per_sec": best_seed[kernels],
                   "align.reads_per_sec": align_rps[kernels]}
        if kernels == "vector":
            metrics["seed_speedup_vs_scalar"] = seed_speedup
            metrics["align_speedup_vs_scalar"] = align_speedup
        append_record(str(LEDGER_PATH), build_record(
            BENCHMARK, metrics, label=f"kernels-{kernels}",
            workload=workload,
            config={"kernels": kernels, "workers": 1,
                    "batch_sizes": list(BATCH_SIZES)}))

    rows = [f"{'config':<28}{'reads/sec':>12}{'vs scalar':>12}"]
    for kernels in ("scalar", "vector"):
        for batch_size in BATCH_SIZES:
            rps = seed_rps[kernels][batch_size]
            rows.append(f"{f'seed {kernels} batch={batch_size}':<28}"
                        f"{rps:>12.1f}"
                        f"{rps / best_seed['scalar']:>12.2f}")
    for kernels in ("scalar", "vector"):
        rps = align_rps[kernels]
        rows.append(f"{f'align {kernels}':<28}{rps:>12.1f}"
                    f"{rps / align_rps['scalar']:>12.2f}")
    record_result(
        "kernels_throughput",
        "scalar vs vector kernels (identical output asserted)\n"
        + "\n".join(rows)
        + f"\nseed speedup {seed_speedup:.2f}x"
        f"  align speedup {align_speedup:.2f}x")

    # What must hold on any machine: identical output (asserted above)
    # and the acceptance speedups on seeding *and* the SAM path (the
    # ledger diff re-checks both from the recorded manifests).
    assert seed_speedup >= MIN_SEED_SPEEDUP, \
        f"vector seeding speedup {seed_speedup:.2f}x below the " \
        f"{MIN_SEED_SPEEDUP:.1f}x acceptance floor"
    assert align_speedup >= MIN_ALIGN_SPEEDUP, \
        f"vector align speedup {align_speedup:.2f}x below the " \
        f"{MIN_ALIGN_SPEEDUP:.1f}x acceptance floor"
