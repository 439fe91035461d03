"""Fault-injection battery for the repro.parallel recovery layer.

The contract: any *recoverable* fault (a SIGKILLed worker, an expired
per-batch timeout) leaves the run's output byte-identical to the serial
path, with the recovery visible as telemetry counters; unrecoverable
pools degrade to the in-process serial path with a warning instead of
failing the run; deterministic task failures propagate as typed errors
on first occurrence; and no shared-memory segment survives any of it.

Faults ride into workers through the scheduler's ``options["fault"]``
hook (see ``_trip_injected_fault``): a ``token`` file created with
``O_CREAT | O_EXCL`` makes a fault fire exactly once across pool
respawns, so the retried batch runs clean.
"""

import glob
import os

import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.parallel import (
    BatchTaskError,
    BatchTimeoutError,
    ParallelConfig,
    RetryPolicy,
    SharedIndexBuffer,
    WorkerCrashError,
    attach_index,
    default_retries,
    seed_reads,
)
from repro.parallel import pool
from repro.parallel import scheduler as sched
from repro.parallel import shm as shm_mod
from repro.parallel.faults import (
    BatchSerializationError,
    PoolUnavailableError,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _shm_segments():
    """Names currently present in /dev/shm (POSIX shared memory lives
    there on Linux; extra entries after a run are leaked segments)."""
    return set(glob.glob("/dev/shm/*"))


@pytest.fixture()
def shm_leak_check():
    """Assert the test leaves /dev/shm exactly as it found it."""
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _run_seed(index, reads, params, config, fault):
    """``seed_reads`` with a fault injected into the workers."""
    return sched._map_reads(ErtSeedingEngine(index), "seed",
                            {"params": params, "fault": fault}, reads,
                            config, config.batch_size)


# ----------------------------------------------------------------------
# Recoverable faults: output stays byte-identical, counters fire.
# ----------------------------------------------------------------------


def test_sigkill_recovery_is_byte_identical(ert_index, reads, params,
                                            tmp_path, shm_leak_check):
    # The faulted run below executes with telemetry enabled, which makes
    # the engine ineligible for the vector kernels (it falls back to the
    # scalar walk, whose EngineStats count nodes the gather walk never
    # touches).  Pin the baseline to the same backend so the stats
    # comparison is backend-for-backend even when $REPRO_KERNELS=vector
    # drives the rest of this suite.
    baseline, base_stats = seed_reads(
        ert_index, reads, params,
        ParallelConfig(workers=1, kernels="scalar"))
    token = str(tmp_path / "sigkill.token")
    telemetry.reset()
    telemetry.enable()
    try:
        lines, stats = _run_seed(
            ert_index, reads, params,
            ParallelConfig(workers=2, batch_size=4, retries=2),
            fault={"kind": "sigkill", "token": token})
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert os.path.exists(token), "fault never fired -- test is vacuous"
    assert lines == baseline
    assert stats.as_dict() == base_stats.as_dict()
    assert snap["counters"]["parallel.worker_crashes"] >= 1
    assert snap["counters"]["parallel.retries"] >= 1
    assert snap["counters"]["parallel.pool_respawns"] >= 1
    assert "parallel.recovery" in snap["spans"]
    # True recovery, not the degraded path: the respawned pool finished
    # the run.
    assert "parallel.fallback_serial" not in snap["counters"]


def test_recovery_counters_visible_in_metrics_file(ert_index, reads, params,
                                                   tmp_path, shm_leak_check):
    """The --metrics-out pipeline: counters written by a faulted run
    survive the JSON round trip the CLI uses."""
    token = str(tmp_path / "sigkill.token")
    metrics = str(tmp_path / "metrics.json")
    telemetry.reset()
    telemetry.enable()
    try:
        _run_seed(ert_index, reads, params,
                  ParallelConfig(workers=2, batch_size=4, retries=2),
                  fault={"kind": "sigkill", "token": token})
        telemetry.write_json(metrics, telemetry.snapshot())
    finally:
        telemetry.disable()
        telemetry.reset()
    snap = telemetry.load_snapshot(metrics)
    assert snap["counters"]["parallel.worker_crashes"] >= 1
    assert snap["counters"]["parallel.retries"] >= 1


def test_batch_timeout_recovery_is_byte_identical(ert_index, reads, params,
                                                  tmp_path, shm_leak_check):
    baseline, _ = seed_reads(ert_index, reads, params,
                             ParallelConfig(workers=1))
    token = str(tmp_path / "hang.token")
    telemetry.reset()
    telemetry.enable()
    try:
        lines, _ = _run_seed(
            ert_index, reads, params,
            ParallelConfig(workers=2, batch_size=4, retries=2,
                           batch_timeout=2.0),
            fault={"kind": "hang", "seconds": 60.0, "token": token})
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert os.path.exists(token)
    assert lines == baseline
    assert snap["counters"]["parallel.batch_timeouts"] >= 1
    assert snap["counters"]["parallel.retries"] >= 1
    assert "parallel.fallback_serial" not in snap["counters"]


# ----------------------------------------------------------------------
# Budget exhaustion and deterministic failures: typed errors propagate.
# ----------------------------------------------------------------------


def test_worker_crash_with_zero_retries_raises(ert_index, reads, params,
                                               tmp_path, shm_leak_check):
    token = str(tmp_path / "sigkill.token")
    with pytest.raises(WorkerCrashError) as info:
        _run_seed(ert_index, reads, params,
                  ParallelConfig(workers=2, batch_size=4, retries=0),
                  fault={"kind": "sigkill", "token": token})
    assert info.value.retryable
    assert info.value.batch_index is not None


def test_batch_timeout_exhausts_retry_budget(ert_index, reads, params,
                                             shm_leak_check):
    # No token: the hang re-fires on every attempt, so the budget runs
    # out and the typed timeout error escapes.
    with pytest.raises(BatchTimeoutError):
        _run_seed(ert_index, reads, params,
                  ParallelConfig(workers=2, batch_size=4, retries=1,
                                 batch_timeout=0.5, backoff_s=0.01),
                  fault={"kind": "hang", "seconds": 60.0})


def test_task_exception_propagates_without_retry(ert_index, reads, params,
                                                 tmp_path, shm_leak_check):
    token = str(tmp_path / "raise.token")
    telemetry.reset()
    telemetry.enable()
    try:
        with pytest.raises(BatchTaskError) as info:
            _run_seed(ert_index, reads, params,
                      ParallelConfig(workers=2, batch_size=4, retries=3),
                      fault={"kind": "raise", "token": token})
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert not info.value.retryable
    assert isinstance(info.value.__cause__, RuntimeError)
    # Deterministic failures must not burn the retry budget.
    assert snap["counters"].get("parallel.retries", 0) == 0


# ----------------------------------------------------------------------
# Unbuildable pools degrade to the serial path.
# ----------------------------------------------------------------------


def test_pool_init_failure_falls_back_to_serial(ert_index, reads, params,
                                                shm_leak_check):
    # Telemetry is enabled around the degraded run, which pins its
    # engine to the scalar walk (vector kernels are ineligible under
    # telemetry) -- match backends for the stats comparison below.
    baseline, base_stats = seed_reads(
        ert_index, reads, params,
        ParallelConfig(workers=1, kernels="scalar"))
    telemetry.reset()
    telemetry.enable()
    try:
        with pytest.warns(RuntimeWarning, match="serial"):
            lines, stats = _run_seed(
                ert_index, reads, params,
                ParallelConfig(workers=2, batch_size=4, retries=1),
                fault={"kind": "init-raise"})
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert lines == baseline
    assert stats.as_dict() == base_stats.as_dict()
    assert snap["counters"]["parallel.fallback_serial"] == 1


# ----------------------------------------------------------------------
# Failure classification and retry-policy plumbing.
# ----------------------------------------------------------------------


def test_classify_failure_maps_exception_types():
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool
    from pickle import PicklingError

    assert isinstance(pool._classify_failure(FuturesTimeoutError(), 3),
                      BatchTimeoutError)
    assert isinstance(pool._classify_failure(BrokenProcessPool("x"), 3),
                      WorkerCrashError)
    assert isinstance(pool._classify_failure(PicklingError("x"), 3),
                      BatchSerializationError)
    assert isinstance(pool._classify_failure(ValueError("x"), 3),
                      BatchTaskError)
    assert pool._classify_failure(ValueError("x"), 7).batch_index == 7


def test_retry_policy_backoff_and_attempts():
    policy = RetryPolicy(retries=3, backoff_s=0.1, backoff_factor=2.0)
    assert policy.max_attempts == 4
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(3) == pytest.approx(0.4)
    assert RetryPolicy(retries=-5).max_attempts == 1


def test_default_retries_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_RETRIES", raising=False)
    assert default_retries() == 2
    monkeypatch.setenv("REPRO_RETRIES", "5")
    assert default_retries() == 5
    assert ParallelConfig().resolved_policy().retries == 5
    monkeypatch.setenv("REPRO_RETRIES", "-3")
    assert default_retries() == 0
    monkeypatch.setenv("REPRO_RETRIES", "garbage")
    assert default_retries() == 2
    assert ParallelConfig(retries=7).resolved_policy().retries == 7


def test_config_resolves_timeout_into_policy():
    policy = ParallelConfig(batch_timeout=1.5, retries=1,
                            backoff_s=0.2).resolved_policy()
    assert policy.batch_timeout == 1.5
    assert policy.retries == 1
    assert policy.backoff_s == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Shared-memory lifecycle hardening.
# ----------------------------------------------------------------------


def test_segment_registry_tracks_owner_lifetime(ert_index, shm_leak_check):
    with SharedIndexBuffer(ert_index) as shared:
        assert shared.name in shm_mod._LIVE_SEGMENTS
    assert shared.name not in shm_mod._LIVE_SEGMENTS


def test_atexit_sweep_unlinks_orphaned_segment(ert_index, shm_leak_check):
    shared = SharedIndexBuffer(ert_index)
    assert shared.name in shm_mod._LIVE_SEGMENTS
    shm_mod._sweep_live_segments()
    assert shared.name not in shm_mod._LIVE_SEGMENTS
    # Idempotent: a second sweep (the real atexit call) must not raise.
    shm_mod._sweep_live_segments()


def test_attach_failure_closes_mapping(ert_index, shm_leak_check):
    with SharedIndexBuffer(ert_index) as shared:
        # A truncated view cannot hold the serialized index; the worker-
        # side attach must close its mapping before propagating.
        with pytest.raises(Exception):
            attach_index(shared.name, 8)
        # The segment itself is still usable by a correct attach.
        index = attach_index(shared.name, shared.size)
        assert index.config.k == ert_index.config.k


def test_fault_free_pool_leaves_no_segments(ert_index, reads, params,
                                            shm_leak_check):
    lines, _ = seed_reads(ert_index, reads, params,
                          ParallelConfig(workers=2, batch_size=8))
    assert lines


def test_pool_unavailable_error_is_not_retryable():
    assert not PoolUnavailableError("x").retryable
    assert WorkerCrashError("x").retryable
    assert BatchTimeoutError("x").retryable
    assert not BatchTaskError("x").retryable
    assert not BatchSerializationError("x").retryable
