"""A deterministic guard on the Python calls telemetry adds to seeding.

With telemetry on, :func:`~repro.seeding.algorithm.seed_batch` opens its
``seed`` / ``kernels.batch`` spans and flushes its
:class:`~repro.seeding.stats.KernelBatchStats` once per call.  This
counts, with the hook of ``tests/test_seeding_calls.py``, the calls
under ``src/repro`` that seeding makes with telemetry on minus those it
makes with telemetry off, on the same 200 reads of the pipeline
benchmark's read model.  That excess is a cost per batch: it must not
grow with the reads in a batch.  A count does not depend on the host's
speed, so the gate is exact where a timing ratio would be noise.
"""

import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.seeding.algorithm import SeedingParams, seed_batch
from tests.test_seeding_calls import (  # noqa: F401 (a fixture)
    N_READS,
    _repro_calls,
    benchmark_model,
)

PARAMS = SeedingParams(min_seed_len=19, max_hits_per_seed=500)


def _seeding_calls(index, batches, observed: bool) -> int:
    """Calls under ``src/repro`` while one engine seeds ``batches`` in
    turn, after an uncounted pass that builds the engine's caches and the
    telemetry's span records."""
    was_enabled = telemetry.enabled()
    _switch(observed)
    telemetry.reset()
    try:
        engine = ErtSeedingEngine(index)
        for batch in batches:
            seed_batch(engine, batch, PARAMS)
        engine = ErtSeedingEngine(index)
        return sum(_repro_calls(lambda: [
            seed_batch(engine, batch, PARAMS) for batch in batches]).values())
    finally:
        telemetry.reset()
        _switch(was_enabled)


def _switch(on: bool) -> None:
    if on:
        telemetry.enable()
    else:
        telemetry.disable()


def _excess(index, batches) -> int:
    return (_seeding_calls(index, batches, True)
            - _seeding_calls(index, batches, False))


def test_telemetry_adds_calls_per_batch_not_per_read(benchmark_model):
    index, reads = benchmark_model
    assert len(reads) == N_READS == 200
    one_batch = _excess(index, [reads])
    assert one_batch > 0
    assert _excess(index, [reads[:100]]) == one_batch
    quarter = N_READS // 4
    assert _excess(index, [reads[i:i + quarter]
                           for i in range(0, N_READS, quarter)]) \
        == 4 * one_batch
