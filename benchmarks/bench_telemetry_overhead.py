"""Telemetry overhead guard: disabled-mode seeding must stay free.

The telemetry layer promises a no-op fast path: with the module-level
flag off, `seed_read` (`seed_batch` of one read) takes one flag check
per call, skips the engine-stats snapshots and the flush, and every
recording helper returns immediately.  This benchmark enforces that promise by
timing the instrumented driver (telemetry disabled) against a local
re-implementation of the three seeding rounds that contains *no*
telemetry calls at all -- the closest thing to the pre-instrumentation
code -- and asserting the slowdown stays under 3 % plus the measured
noise of the comparison, at most twice the budget.

Trials are interleaved, alternating which mode runs first, and each
trial yields one paired ratio: the mode's time over its reference's
time in the same trial, so a slow stretch of a shared host slows both
legs of a ratio instead of one mode's median.  The gate is the median
ratio; the interquartile range of the ratios is this host's noise on
the comparison, and each budget is widened by it, capped at twice the
budget, so a noisy run cannot pass a slowdown of several budgets.

Two more modes are measured: metrics enabled (reference, not asserted)
and metrics enabled *with timeline recording* (the ``--trace-out``
path, where every span also lands a begin/end event pair in the ring
buffer).  Recording must stay under a 15 % slowdown against plain
enabled mode.  All four numbers land in
``benchmarks/results/telemetry_overhead.txt``.  Per-read exemplar
capture (``--slowlog``) happens in the scheduler's batch runner, which
seeds every batch with ``seed_batch``; ``test_vector_telemetry_overhead``
gates it against a dark runner.

``test_vector_telemetry_overhead`` guards the batch path the same
way: batch-flushed metrics (``KernelBatchStats``) must stay within
5 % of a dark ``seed_batch`` sweep, and an observed batch through the
scheduler's runner (metrics plus accumulator-derived exemplars) within
5 % of a dark one.
"""

import statistics
import time

from conftest import record_result

from repro import telemetry
from repro.analysis import format_table
from repro.core import ErtSeedingEngine
from repro.kernels import seed_batch
from repro.parallel import ParallelConfig, map_batches, pack_batch
from repro.seeding.algorithm import (
    SeedingResult,
    generate_smems,
    last_round,
    reseed_round,
    smems_to_seeds,
)
from repro.seeding import seed_read

MAX_OVERHEAD = 0.03
MAX_RECORDING_OVERHEAD = 0.15
#: The noise allowance widens a budget by at most this many budgets.
MAX_ALLOWANCE = 2.0
#: Budget for a fully observed vector batch (metrics alone, and metrics
#: plus exemplar derivation) against a dark vector batch.
MAX_VECTOR_OVERHEAD = 0.05
N_TRIALS = 15


def _baseline_seed_read(engine, read, params):
    """The three rounds exactly as `seed_read` runs them, minus every
    telemetry touchpoint (no flag check, no spans, no flush)."""
    engine.begin_read()
    smems = generate_smems(engine, read, params)
    seeds = smems_to_seeds(engine, read, smems, params)
    return SeedingResult._make((
        seeds,
        reseed_round(engine, read, seeds, params) if params.reseed else [],
        last_round(engine, read, params, smems) if params.use_last else []))


def _paired(times: "dict[str, list[float]]", mode: str,
            reference: str) -> "tuple[float, float]":
    """The median over trials of ``mode``'s time over ``reference``'s
    time in the same trial, and the interquartile range of those
    ratios."""
    ratios = [a / b for a, b in zip(times[mode], times[reference])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return median, q3 - q1


def _limit(budget: float, spread: float) -> float:
    """``budget`` widened by the measured ``spread``, at most by
    :data:`MAX_ALLOWANCE` budgets."""
    return budget + min(spread, MAX_ALLOWANCE * budget)


def _interleaved(modes: "dict[str, object]") -> "dict[str, list[float]]":
    """``N_TRIALS`` timings of each mode (a callable returning seconds),
    the order of the modes reversed every other trial."""
    times: "dict[str, list[float]]" = {name: [] for name in modes}
    names = list(modes)
    for trial in range(N_TRIALS):
        for name in names if trial % 2 == 0 else names[::-1]:
            times[name].append(modes[name]())
    return times


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
    workload = reads
    telemetry.disable()
    telemetry.reset()

    def timed(fn):
        return lambda: _time_batch(fn, engine, workload, params)

    def recorded():
        telemetry.start_recording()
        try:
            return _time_batch(seed_read, engine, workload, params)
        finally:
            telemetry.stop_recording()

    dark = _interleaved({"baseline": timed(_baseline_seed_read),
                         "instrumented": timed(seed_read)})
    assert telemetry.registry().is_empty, \
        "disabled-mode seeding leaked metrics into the registry"

    telemetry.enable()
    observed = _interleaved({"enabled": timed(seed_read),
                             "recording": recorded})
    assert len(telemetry.recorder()) > 0, \
        "recording mode produced no timeline events"
    telemetry.recorder().clear()
    telemetry.disable()
    telemetry.reset()

    medians = {mode: statistics.median(times)
               for mode, times in {**dark, **observed}.items()}
    ratio, spread = _paired(dark, "instrumented", "baseline")
    recording_ratio, recording_spread = _paired(observed, "recording",
                                                "enabled")
    limit = _limit(MAX_OVERHEAD, spread)
    recording_limit = _limit(MAX_RECORDING_OVERHEAD, recording_spread)
    n = len(workload)
    baseline = medians["baseline"]
    table = format_table(
        ["mode", f"median s / {n} reads", "reads/s", "vs baseline",
         "paired ratio (IQR)"],
        [["no telemetry (baseline)", baseline, n / baseline, "1.000x", ""],
         ["instrumented, disabled", medians["instrumented"],
          n / medians["instrumented"],
          f"{medians['instrumented'] / baseline:.3f}x",
          f"{ratio:.3f}x ({spread * 100:.1f}%) vs baseline"],
         ["instrumented, enabled", medians["enabled"],
          n / medians["enabled"], f"{medians['enabled'] / baseline:.3f}x",
          ""],
         ["enabled + timeline recording", medians["recording"],
          n / medians["recording"],
          f"{medians['recording'] / baseline:.3f}x",
          f"{recording_ratio:.3f}x ({recording_spread * 100:.1f}%) "
          f"vs enabled"]],
        title=f"telemetry overhead on ERT seeding "
              f"(median of {N_TRIALS} interleaved trials)")
    record_result("telemetry_overhead", table)
    assert ratio - 1.0 < limit, (
        f"disabled telemetry costs {(ratio - 1.0) * 100:.1f}% (limit "
        f"{limit * 100:.1f}%: {MAX_OVERHEAD * 100:.0f}% + the paired "
        f"ratios' IQR {spread * 100:.1f}%, capped at "
        f"{MAX_ALLOWANCE * MAX_OVERHEAD * 100:.0f}%)")
    assert recording_ratio - 1.0 < recording_limit, (
        f"timeline recording costs {(recording_ratio - 1.0) * 100:.1f}% "
        f"over enabled mode (limit {recording_limit * 100:.1f}%: "
        f"{MAX_RECORDING_OVERHEAD * 100:.0f}% + the paired ratios' IQR "
        f"{recording_spread * 100:.1f}%, capped at "
        f"{MAX_ALLOWANCE * MAX_RECORDING_OVERHEAD * 100:.0f}%)")


def test_vector_telemetry_overhead(ert_index, reads, params):
    """Observed vector batches stay within 5 % of dark vector batches.

    Interleaved modes over the full 500-read workload.  One
    ``seed_batch`` sweep, telemetry off (no accumulator columns are
    built and nothing is flushed) against telemetry on (per-read
    columns and one registry flush per batch); and one batch through
    the scheduler's runner (sweep, TSV lines, and -- observed -- the
    accumulator-derived per-read exemplars of ``--slowlog`` in vector
    mode), dark against observed.
    """
    engine = ErtSeedingEngine(ert_index)
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
    table = format_table(
        ["mode", f"best s / {n} reads", "reads/s", "vs its dark run"],
        [["vector, dark", dark, n / dark, "1.000x"],
         ["vector + metrics", metrics, n / metrics,
          f"{metrics / dark:.3f}x"],
         ["batch runner, dark", dark_runner, n / dark_runner, "1.000x"],
         ["batch runner + metrics + exemplars", exemplar, n / exemplar,
          f"{exemplar / dark_runner:.3f}x"]],
        title=f"vector kernel telemetry overhead "
              f"(best of {N_TRIALS} interleaved trials)")
    record_result("vector_telemetry_overhead", table)

    assert metrics_overhead < MAX_VECTOR_OVERHEAD, (
        f"vector batch metrics cost {metrics_overhead * 100:.1f}% "
        f"(limit {MAX_VECTOR_OVERHEAD * 100:.0f}%): {metrics:.4f}s vs "
        f"dark {dark:.4f}s")
    assert exemplar_overhead < MAX_VECTOR_OVERHEAD, (
        f"vector exemplar capture costs {exemplar_overhead * 100:.1f}% "
        f"(limit {MAX_VECTOR_OVERHEAD * 100:.0f}%): {exemplar:.4f}s vs "
        f"dark {dark_runner:.4f}s")
