"""A deterministic guard on the Python calls telemetry adds to seeding
and to extension.

With telemetry on, :func:`~repro.seeding.algorithm.seed_batch` opens its
``seed`` / ``kernels.batch`` spans and flushes its
:class:`~repro.seeding.stats.KernelBatchStats` once per call, and
:meth:`~repro.extend.pipeline.ReadAligner.extend_batch` opens its
``align`` / ``chain`` / ``extend`` spans and flushes the ``align.*``
families once per call.  This counts, with the hook of
``tests/test_seeding_calls.py``, the calls under ``src/repro`` that
each makes with telemetry on minus those it makes with telemetry off,
on the same 200 reads of the pipeline benchmark's read model (the
``align`` row as ``tests/test_align_calls.py`` runs it: the vector
kernels, given seedings).  That excess is a cost per batch: it must
not grow with the reads in a batch.  A count does not depend on the
host's speed, so the gate is exact where a timing ratio would be noise.
"""

import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.extend.pipeline import ReadAligner
from repro.kernels.traceback import batched_banded_sw, batched_sw_traceback
from repro.seeding.algorithm import SeedingParams, seed_batch
from tests.test_seeding_calls import (  # noqa: F401 (a fixture)
    N_READS,
    _repro_calls,
    benchmark_model,
)

PARAMS = SeedingParams(min_seed_len=19, max_hits_per_seed=500)
#: ``tests/test_align_calls.py``'s parameters.
ALIGN_PARAMS = SeedingParams(min_seed_len=19)


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


def _extension_calls(index, batches, observed: bool) -> int:
    """Calls under ``src/repro`` while one vector-kernel aligner turns
    ``batches`` into SAM records in turn, given their seedings (made
    dark, uncounted), after an uncounted pass that makes the kernels'
    workspaces and the telemetry's span records."""
    was_enabled = telemetry.enabled()
    telemetry.disable()
    telemetry.reset()
    try:
        engine = ErtSeedingEngine(index)
        jobs = [(batch, [f"read{i}" for i in range(len(batch))],
                 [""] * len(batch), seed_batch(engine, batch, ALIGN_PARAMS))
                for batch in batches]
        aligner = ReadAligner(index.reference, engine, params=ALIGN_PARAMS,
                              sw_batch=batched_banded_sw,
                              tb_batch=batched_sw_traceback)
        _switch(observed)
        for job in jobs:
            aligner.align_sam_batch(*job)
        return sum(_repro_calls(lambda: [
            aligner.align_sam_batch(*job) for job in jobs]).values())
    finally:
        telemetry.reset()
        _switch(was_enabled)


def _switch(on: bool) -> None:
    if on:
        telemetry.enable()
    else:
        telemetry.disable()


def _excess(calls, index, batches) -> int:
    return calls(index, batches, True) - calls(index, batches, False)


def _assert_per_batch(calls, benchmark_model) -> None:
    """The excess of ``calls`` is the same for one batch of 200 reads as
    for one of 100, and four batches of 50 add four times one batch."""
    index, reads = benchmark_model
    assert len(reads) == N_READS == 200
    one_batch = _excess(calls, index, [reads])
    assert one_batch > 0
    assert _excess(calls, index, [reads[:100]]) == one_batch
    quarter = N_READS // 4
    assert _excess(calls, index, [reads[i:i + quarter]
                                  for i in range(0, N_READS, quarter)]) \
        == 4 * one_batch


def test_telemetry_adds_calls_per_batch_not_per_read(benchmark_model):
    _assert_per_batch(_seeding_calls, benchmark_model)


def test_telemetry_adds_extension_calls_per_batch_not_per_read(
        benchmark_model):
    _assert_per_batch(_extension_calls, benchmark_model)
