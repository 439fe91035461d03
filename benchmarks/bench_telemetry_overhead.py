"""Telemetry overhead guard: disabled-mode seeding must stay free.

The telemetry layer promises a no-op fast path: with the module-level
flag off, `seed_read` takes one flag check per read and every recording
helper returns immediately.  This benchmark enforces that promise by
timing the instrumented driver (telemetry disabled) against a local
re-implementation of the three seeding rounds that contains *no*
telemetry calls at all -- the closest thing to the pre-instrumentation
code -- and asserting the slowdown stays under 3 %.

Trials are interleaved and the minimum per mode is compared, which
cancels warm-up and scheduler noise; on this workload the two loops are
within measurement jitter of each other.

Three more modes are measured: metrics enabled (reference, not
asserted), metrics enabled *with per-read exemplar sampling* (the
``--slowlog`` path, one batch through the scheduler's runner: every
read takes a stats-dict delta, a reservoir offer and a wall-time
histogram observe), and metrics enabled *with
timeline recording* (the ``--trace-out`` path, where every span also
lands a begin/end event pair in the ring buffer).  Exemplar sampling
must stay under a 5 % slowdown against plain enabled mode, and
recording under a 15 % slowdown against the no-telemetry baseline --
in practice the marginal costs sit inside measurement jitter.  All
five numbers land in ``benchmarks/results/telemetry_overhead.txt``.

``test_vector_telemetry_overhead`` guards the vector kernels the same
way: batch-flushed metrics (``KernelBatchStats``) must stay within
5 % of a dark ``seed_batch`` sweep, and an observed batch through the
scheduler's runner (metrics plus accumulator-derived exemplars) within
5 % of a dark one.  The numbers are additionally appended to the
``kernels_throughput`` run ledger as a floor manifest (dark throughput
scaled by the budget) followed by an observed manifest, so
``ert-repro ledger diff --benchmark kernels_throughput --threshold
0.0`` fails in CI whenever observed vector throughput drops below
95 % of dark -- the same invariant, re-checkable from the persisted
manifests alone.
"""

import time
from pathlib import Path

from conftest import record_result

from repro import telemetry
from repro.analysis import format_table
from repro.core import ErtSeedingEngine
from repro.kernels import seed_batch, vector_decline_reason
from repro.ledger import append_record, build_record
from repro.parallel import ParallelConfig, map_batches, pack_batch
from repro.seeding.algorithm import (
    SeedingResult,
    generate_smems,
    last_round,
    reseed_round,
    smems_to_seeds,
)
from repro.seeding import seed_read

LEDGER_PATH = Path(__file__).resolve().parent / "ledger.jsonl"
LEDGER_BENCHMARK = "kernels_throughput"

MAX_OVERHEAD = 0.03
MAX_EXEMPLAR_OVERHEAD = 0.05
MAX_RECORDING_OVERHEAD = 0.15
#: Budget for a fully observed vector batch (metrics alone, and metrics
#: plus exemplar derivation) against a dark vector batch.
MAX_VECTOR_OVERHEAD = 0.05
N_TRIALS = 7


def _baseline_seed_read(engine, read, params):
    """The three rounds exactly as `seed_read` runs them, minus every
    telemetry touchpoint (no flag check, no spans, no flush)."""
    engine.begin_read()
    result = SeedingResult()
    smems = generate_smems(engine, read, params)
    result.smems = smems_to_seeds(engine, read, smems, params)
    if params.reseed:
        result.reseed_seeds = reseed_round(engine, read, result.smems,
                                           params)
    if params.use_last:
        result.last_seeds = last_round(engine, read, params)
    return result


def _time_batch(fn, engine, reads, params) -> float:
    start = time.perf_counter()
    for read in reads:
        fn(engine, read, params)
    return time.perf_counter() - start


def _time_runner(engine, batch, params, kernels) -> float:
    """One packed batch through the scheduler's in-process runner (as
    ``ert-repro explain`` drives it): with telemetry enabled this is the
    exemplar-capturing path of a real ``seed`` run."""
    start = time.perf_counter()
    list(map_batches(("local", engine), "seed",
                     {"params": params, "kernels": kernels}, [batch],
                     ParallelConfig(workers=1)))
    return time.perf_counter() - start


def test_disabled_telemetry_overhead(ert_index, reads, params):
    engine = ErtSeedingEngine(ert_index)
    workload = reads[:200]
    telemetry.disable()
    telemetry.reset()

    baseline = instrumented = float("inf")
    for _ in range(N_TRIALS):
        baseline = min(baseline, _time_batch(_baseline_seed_read, engine,
                                             workload, params))
        instrumented = min(instrumented, _time_batch(seed_read, engine,
                                                     workload, params))
    assert telemetry.registry().is_empty, \
        "disabled-mode seeding leaked metrics into the registry"

    batch = pack_batch(workload)
    telemetry.enable()
    enabled = exemplar = recording = float("inf")
    for _ in range(N_TRIALS):
        enabled = min(enabled, _time_batch(seed_read, engine, workload,
                                           params))
        exemplar = min(exemplar, _time_runner(engine, batch, params,
                                              "scalar"))
        telemetry.start_recording()
        recording = min(recording, _time_batch(seed_read, engine,
                                               workload, params))
        telemetry.stop_recording()
    assert not telemetry.exemplars().is_empty, \
        "exemplar mode sampled no reads"
    assert len(telemetry.recorder()) > 0, \
        "recording mode produced no timeline events"
    telemetry.stop_recording()
    telemetry.recorder().clear()
    telemetry.disable()
    telemetry.reset()

    overhead = instrumented / baseline - 1.0
    exemplar_overhead = exemplar / enabled - 1.0
    recording_overhead = recording / baseline - 1.0
    n = len(workload)
    table = format_table(
        ["mode", "best s / 200 reads", "reads/s", "vs baseline"],
        [["no telemetry (baseline)", baseline, n / baseline, "1.000x"],
         ["instrumented, disabled", instrumented, n / instrumented,
          f"{instrumented / baseline:.3f}x"],
         ["instrumented, enabled", enabled, n / enabled,
          f"{enabled / baseline:.3f}x"],
         ["enabled + read exemplars", exemplar, n / exemplar,
          f"{exemplar / baseline:.3f}x"],
         ["enabled + timeline recording", recording, n / recording,
          f"{recording / baseline:.3f}x"]],
        title=f"telemetry overhead on ERT seeding "
              f"(best of {N_TRIALS} interleaved trials)")
    record_result("telemetry_overhead", table)
    assert overhead < MAX_OVERHEAD, (
        f"disabled telemetry costs {overhead * 100:.1f}% "
        f"(limit {MAX_OVERHEAD * 100:.0f}%): {instrumented:.4f}s vs "
        f"baseline {baseline:.4f}s")
    assert exemplar_overhead < MAX_EXEMPLAR_OVERHEAD, (
        f"exemplar sampling costs {exemplar_overhead * 100:.1f}% over "
        f"enabled mode (limit {MAX_EXEMPLAR_OVERHEAD * 100:.0f}%): "
        f"{exemplar:.4f}s vs enabled {enabled:.4f}s")
    assert recording_overhead < MAX_RECORDING_OVERHEAD, (
        f"timeline recording costs {recording_overhead * 100:.1f}% "
        f"(limit {MAX_RECORDING_OVERHEAD * 100:.0f}%): {recording:.4f}s "
        f"vs baseline {baseline:.4f}s")


def test_vector_telemetry_overhead(ert_index, reads, params):
    """Observed vector batches stay within 5 % of dark vector batches.

    Interleaved modes over the full 500-read workload.  One
    ``seed_batch`` sweep, telemetry off (the accumulators still run --
    they are unconditional -- but the flush is a no-op) against
    telemetry on (one registry flush per batch); and one batch through
    the scheduler's runner (sweep, TSV lines, and -- observed -- the
    accumulator-derived per-read exemplars of ``--slowlog`` in vector
    mode), dark against observed.  The results also land in the
    ``kernels_throughput`` ledger so the CI diff gate re-checks the
    budget from the manifests.
    """
    engine = ErtSeedingEngine(ert_index)
    assert vector_decline_reason(engine) is None
    batch = pack_batch(reads)

    def run_sweep() -> float:
        engine.begin_batch(reads)
        start = time.perf_counter()
        seed_batch(engine, reads, params)
        return time.perf_counter() - start

    telemetry.disable()
    telemetry.reset()
    dark = dark_runner = metrics = exemplar = float("inf")
    for _ in range(N_TRIALS):
        telemetry.disable()
        dark = min(dark, run_sweep())
        dark_runner = min(dark_runner,
                          _time_runner(engine, batch, params, "vector"))
        telemetry.enable()
        metrics = min(metrics, run_sweep())
        exemplar = min(exemplar,
                       _time_runner(engine, batch, params, "vector"))
        telemetry.disable()
        telemetry.reset()
    metrics_overhead = metrics / dark - 1.0
    exemplar_overhead = exemplar / dark_runner - 1.0

    n = len(reads)
    dark_rps = n / dark
    table = format_table(
        ["mode", f"best s / {n} reads", "reads/s", "vs its dark run"],
        [["vector, dark", dark, dark_rps, "1.000x"],
         ["vector + metrics", metrics, n / metrics,
          f"{metrics / dark:.3f}x"],
         ["batch runner, dark", dark_runner, n / dark_runner, "1.000x"],
         ["batch runner + metrics + exemplars", exemplar, n / exemplar,
          f"{exemplar / dark_runner:.3f}x"]],
        title=f"vector kernel telemetry overhead "
              f"(best of {N_TRIALS} interleaved trials)")
    record_result("vector_telemetry_overhead", table)

    # Floor manifest first, observed manifest second: the ledger diff
    # ("last two runs") then fails exactly when an observed mode drops
    # below (1 - MAX_VECTOR_OVERHEAD) of dark throughput.
    workload = {"reads": n, "read_length": int(reads[0].size),
                "genome_length": len(ert_index.reference),
                "k": ert_index.config.k}
    budget = 1.0 - MAX_VECTOR_OVERHEAD
    append_record(str(LEDGER_PATH), build_record(
        LEDGER_BENCHMARK,
        {"seeding.observed_metrics_reads_per_sec": dark_rps * budget,
         "seeding.observed_exemplars_reads_per_sec":
             n / dark_runner * budget},
        label="telemetry-vector-floor", workload=workload,
        config={"kernels": "vector", "telemetry": "dark-floor",
                "max_overhead": MAX_VECTOR_OVERHEAD}))
    append_record(str(LEDGER_PATH), build_record(
        LEDGER_BENCHMARK,
        {"seeding.observed_metrics_reads_per_sec": n / metrics,
         "seeding.observed_exemplars_reads_per_sec": n / exemplar,
         "seeding.dark_reads_per_sec": dark_rps,
         "vector_metrics_overhead": metrics_overhead,
         "vector_exemplars_overhead": exemplar_overhead},
        label="telemetry-vector-observed", workload=workload,
        config={"kernels": "vector", "telemetry": "observed",
                "max_overhead": MAX_VECTOR_OVERHEAD}))

    assert metrics_overhead < MAX_VECTOR_OVERHEAD, (
        f"vector batch metrics cost {metrics_overhead * 100:.1f}% "
        f"(limit {MAX_VECTOR_OVERHEAD * 100:.0f}%): {metrics:.4f}s vs "
        f"dark {dark:.4f}s")
    assert exemplar_overhead < MAX_VECTOR_OVERHEAD, (
        f"vector exemplar capture costs {exemplar_overhead * 100:.1f}% "
        f"(limit {MAX_VECTOR_OVERHEAD * 100:.0f}%): {exemplar:.4f}s vs "
        f"dark {dark_runner:.4f}s")
