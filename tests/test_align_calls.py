"""A deterministic guard on the Python calls extension makes per read.

The twin of ``tests/test_seeding_calls.py`` for the alignment half
(docs/performance.md, "Alignment: calls per read and start-up
collection").  This counts the ``sys.setprofile`` ``call`` events whose
code lives under ``src/repro`` while
:meth:`~repro.extend.pipeline.ReadAligner.align_sam_batch` chains,
extends and formats 200 reads of the pipeline benchmark's ``align``
read model (10 kbp genome, seed 2021, k = 6), given their seedings and
the vector kernels, and fails when the count grows more than 3 % past
the figure recorded here, which one more call a read exceeds.  A count
does not depend on the host's speed, so the gate is exact where a
timing would be noise.  On failure it prints the ten functions with the
most calls.

Comprehension and generator-expression frames are left out, as in the
seeding guard: Python 3.12 inlines comprehensions (no frame, no event)
where 3.9 gives each one a frame, and a generator reports a ``call`` at
every resumption.
"""

import pytest

from repro import telemetry
from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.extend.pipeline import ReadAligner
from repro.kernels.traceback import batched_banded_sw, batched_sw_traceback
from repro.seeding.algorithm import SeedingParams, seed_batch
from repro.sequence import GenomeSimulator, ReadSimulator
from tests.test_seeding_calls import _repro_calls, over_budget

#: Python calls under ``src/repro`` for the 200 reads below.
RECORDED_CALLS = 5_794
#: Under one call a read (3 % of 29 a read).
ALLOWANCE = 1.03
N_READS = 200


@pytest.fixture(scope="module")
def benchmark_model():
    """The pipeline benchmark's genome and ``align`` read model (its
    ``align`` workloads draw their reads at ``--seed 2021``)."""
    reference = GenomeSimulator(seed=2021).generate(10_000)
    reads = ReadSimulator(reference, read_length=101,
                          error_read_fraction=0.2, substitution_rate=0.01,
                          seed=2022).simulate(N_READS)
    return build_ert(reference, ErtConfig(k=6)), reads


def test_align_sam_batch_calls_per_read(benchmark_model):
    index, reads = benchmark_model
    codes = [r.codes for r in reads]
    names = [r.name for r in reads]
    qualities = [""] * N_READS
    params = SeedingParams(min_seed_len=19)
    was_enabled = telemetry.enabled()
    telemetry.disable()
    try:
        engine = ErtSeedingEngine(index)
        seedings = seed_batch(engine, codes, params)
        aligner = ReadAligner(index.reference, engine, params=params,
                              sw_batch=batched_banded_sw,
                              tb_batch=batched_sw_traceback)
        # Warm up: lazy imports and the kernels' workspaces are made
        # once, not per read.
        aligner.align_sam_batch(codes, names, qualities, seedings)
        calls = _repro_calls(lambda: aligner.align_sam_batch(
            codes, names, qualities, seedings))
    finally:
        if was_enabled:
            telemetry.enable()
    assert sum(calls.values()) <= RECORDED_CALLS * ALLOWANCE, over_budget(
        "extending", calls, RECORDED_CALLS, ALLOWANCE, N_READS)
