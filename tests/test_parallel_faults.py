"""Fault-injection battery for the repro.parallel recovery layer.

The contract: any *recoverable* fault (a SIGKILLed worker, an expired
per-batch timeout) leaves the run's output byte-identical to the serial
path, with the recovery visible as telemetry counters; unrecoverable
pools degrade to the in-process serial path with a warning instead of
failing the run; deterministic task failures propagate as typed errors
on first occurrence; and no shared-memory segment or temporary index
file survives any of it.

Faults ride into workers through the scheduler's ``options["fault"]``
hook (see ``_trip_injected_fault``): a ``token`` file created with
``O_CREAT | O_EXCL`` makes a fault fire exactly once across pool
respawns, so the retried batch runs clean.
"""

import glob
import os
import tempfile

import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine, build_ert, load_ert, save_ert
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
from repro.sequence import GenomeSimulator

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _shm_segments():
    """Names currently present in /dev/shm (POSIX shared memory lives
    there on Linux; extra entries after a run are leaked segments)."""
    return set(glob.glob("/dev/shm/*"))


@pytest.fixture()
def leak_check(tmp_path_factory, monkeypatch):
    """Assert the test leaves /dev/shm exactly as it found it, and the
    temp dir -- where a pool's workers map an index built in memory
    from -- empty."""
    temp = tmp_path_factory.mktemp("tempdir")
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
    assert not os.listdir(temp), f"left in the temp dir: {os.listdir(temp)}"


def _run_seed(index, reads, params, config, fault):
    """``seed_reads`` with a fault injected into the workers."""
    return sched._collect(sched._map_reads(
        ErtSeedingEngine(index), "seed", {"params": params, "fault": fault},
        reads, config, config.batch_size))


# ----------------------------------------------------------------------
# Recoverable faults: output stays byte-identical, counters fire.
# ----------------------------------------------------------------------


def test_sigkill_recovery_is_byte_identical(ert_index, reads, params,
                                            tmp_path, leak_check):
    # The faulted run's options name no kernels, i.e. the scalar
    # traceback; the baseline names the same (seeding is one path
    # under either).
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


def test_sigkill_mid_stream_pulls_no_further_than_the_window(
        ert_index, reads, params, tmp_path, leak_check):
    """A generator as the input: a worker SIGKILLed while the stream is
    still being pulled leaves the output byte-identical, and the pool
    never holds more than its in-flight window of batches beyond the
    merge point -- before the crash, during recovery or after."""
    batch_size = 4
    config = ParallelConfig(workers=2, batch_size=batch_size, retries=2)
    window = sched.INFLIGHT_PER_WORKER * 2
    baseline, _ = seed_reads(ert_index, reads, params,
                             ParallelConfig(workers=1))
    token = str(tmp_path / "sigkill.token")
    pulled = 0

    def stream():
        nonlocal pulled
        for read in reads:
            pulled += 1
            yield read

    lines, ahead = [], []
    for merged, (items, _delta) in enumerate(sched._map_reads(
            ErtSeedingEngine(ert_index), "seed",
            {"params": params, "fault": {"kind": "sigkill", "token": token}},
            stream(), config, batch_size), start=1):
        lines.extend(items)
        ahead.append(pulled - merged * batch_size)
    assert os.path.exists(token), "fault never fired -- test is vacuous"
    assert lines == baseline
    assert len(ahead) > window, "the input fits in one window -- vacuous"
    assert ahead[0] < len(reads) - batch_size
    assert max(ahead) <= (window - 1) * batch_size


def test_recovery_counters_visible_in_metrics_file(ert_index, reads, params,
                                                   tmp_path, leak_check):
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
                                                  tmp_path, leak_check):
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
                                               tmp_path, leak_check):
    token = str(tmp_path / "sigkill.token")
    with pytest.raises(WorkerCrashError) as info:
        _run_seed(ert_index, reads, params,
                  ParallelConfig(workers=2, batch_size=4, retries=0),
                  fault={"kind": "sigkill", "token": token})
    assert info.value.retryable
    assert info.value.batch_index is not None


def test_batch_timeout_exhausts_retry_budget(ert_index, reads, params,
                                             leak_check):
    # No token: the hang re-fires on every attempt, so the budget runs
    # out and the typed timeout error escapes.
    with pytest.raises(BatchTimeoutError):
        _run_seed(ert_index, reads, params,
                  ParallelConfig(workers=2, batch_size=4, retries=1,
                                 batch_timeout=0.5),
                  fault={"kind": "hang", "seconds": 60.0})


def test_task_exception_propagates_without_retry(ert_index, reads, params,
                                                 tmp_path, leak_check):
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
                                                leak_check):
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


def test_failed_respawn_degrades_over_the_window_and_the_rest(
        ert_index, reads, params, tmp_path, monkeypatch, leak_check):
    """A worker dies mid-stream and the pool cannot be rebuilt: the run
    finishes in-process over the batches in flight, then the rest of
    the generator, byte for byte."""
    def refuse(manager):
        manager.kill()
        raise PoolUnavailableError("injected respawn failure")

    monkeypatch.setattr(pool._PoolManager, "respawn", refuse)
    baseline, _ = seed_reads(ert_index, reads, params,
                             ParallelConfig(workers=1))
    token = str(tmp_path / "sigkill.token")
    with pytest.warns(RuntimeWarning, match="serial"):
        lines, _ = _run_seed(
            ert_index, (read for read in reads), params,
            ParallelConfig(workers=2, batch_size=4, retries=2),
            fault={"kind": "sigkill", "token": token})
    assert os.path.exists(token), "fault never fired -- test is vacuous"
    assert lines == baseline


def test_swapped_index_file_degrades_to_the_parents_mapping(
        ert_index, reads, params, tmp_path, leak_check):
    """Workers map the file the parent loaded the index from.  One
    replaced (``os.replace``, here by another genome's index) between
    the parent's load and the workers' map fails every initializer, and
    the run degrades to the parent's own mapping, byte for byte."""
    path = tmp_path / "index.ert"
    save_ert(ert_index, path)
    loaded = load_ert(path)
    config = ParallelConfig(workers=2, batch_size=4, retries=1)
    baseline, base_stats = seed_reads(
        loaded, reads, params, ParallelConfig(workers=1,
                                              kernels=config.kernels))
    save_ert(build_ert(GenomeSimulator(seed=99).generate(3000),
                       ert_index.config), path)
    assert os.stat(path).st_ino != loaded.source.identity[1]
    with pytest.warns(RuntimeWarning, match="serial"):
        lines, stats = seed_reads(loaded, reads, params, config)
    assert lines == baseline
    assert stats.as_dict() == base_stats.as_dict()


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
    policy = ParallelConfig(batch_timeout=1.5, retries=1).resolved_policy()
    assert policy.batch_timeout == 1.5
    assert policy.retries == 1
    assert policy.backoff_s == RetryPolicy().backoff_s


# ----------------------------------------------------------------------
# Shared-memory lifecycle hardening.
# ----------------------------------------------------------------------


def test_segment_registry_tracks_owner_lifetime(ert_index, leak_check):
    with SharedIndexBuffer(ert_index) as shared:
        assert shared.name in shm_mod._LIVE_SEGMENTS
    assert shared.name not in shm_mod._LIVE_SEGMENTS


def test_atexit_sweep_unlinks_orphaned_segment(ert_index, leak_check):
    shared = SharedIndexBuffer(ert_index)
    assert shared.name in shm_mod._LIVE_SEGMENTS
    shm_mod._sweep_live_segments()
    assert shared.name not in shm_mod._LIVE_SEGMENTS
    # Idempotent: a second sweep (the real atexit call) must not raise.
    shm_mod._sweep_live_segments()


def test_attach_failure_closes_mapping(ert_index, leak_check):
    with SharedIndexBuffer(ert_index) as shared:
        # A truncated view cannot hold the serialized index; the worker-
        # side attach must close its mapping before propagating.
        with pytest.raises(Exception):
            attach_index(shared.name, 8)
        # The segment itself is still usable by a correct attach.
        index = attach_index(shared.name, shared.size)
        assert index.config.k == ert_index.config.k


def test_fault_free_pool_leaves_no_segments(ert_index, reads, params,
                                            leak_check):
    lines, _ = seed_reads(ert_index, reads, params,
                          ParallelConfig(workers=2, batch_size=8))
    assert lines


def test_pool_unavailable_error_is_not_retryable():
    assert not PoolUnavailableError("x").retryable
    assert WorkerCrashError("x").retryable
    assert BatchTimeoutError("x").retryable
    assert not BatchTaskError("x").retryable
    assert not BatchSerializationError("x").retryable
