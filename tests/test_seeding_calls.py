"""A deterministic guard on the Python calls seeding makes per read.

Seeding a read is bound by the interpreter calls made around its walks,
not by the walks (docs/performance.md, "Seeding: calls per read").  This
counts the ``sys.setprofile`` ``call`` events whose code lives under
``src/repro`` while :func:`~repro.seeding.algorithm.seed_batch` seeds
200 reads of the pipeline benchmark's read model (10 kbp genome, seed
2021, k = 6), and fails when the count grows more than 5 % past the
figure recorded here.  A count does not depend on the host's speed, so
the gate is exact where a timing would be noise.

Comprehension and generator-expression frames are left out: Python 3.12
inlines comprehensions (no frame, no event) where 3.9 gives each one a
frame, and a generator reports a ``call`` at every resumption.
"""

import os
import sys

import pytest

import repro
from repro import telemetry
from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.seeding.algorithm import SeedingParams, seed_batch
from repro.sequence import GenomeSimulator, ReadSimulator

#: Python calls under ``src/repro`` for the 200 reads below.
RECORDED_CALLS = 12_568
ALLOWANCE = 1.05
N_READS = 200
SKIPPED = frozenset({"<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>"})
PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


@pytest.fixture(scope="module")
def benchmark_model():
    """The pipeline benchmark's genome and read model (its ``seed``
    workload draws its reads at ``--seed 2021``)."""
    reference = GenomeSimulator(seed=2021).generate(10_000)
    reads = ReadSimulator(reference, read_length=101,
                          error_read_fraction=0.2, substitution_rate=0.01,
                          seed=2022).simulate(N_READS)
    return build_ert(reference, ErtConfig(k=6)), [r.codes for r in reads]


def _repro_calls(fn) -> int:
    """``call`` events of code under ``src/repro`` while ``fn`` runs."""
    seen = [0]

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(PACKAGE)
                    and code.co_name not in SKIPPED):
                seen[0] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen[0]


def test_seed_batch_calls_per_read(benchmark_model):
    index, reads = benchmark_model
    params = SeedingParams(min_seed_len=19, max_hits_per_seed=500)
    was_enabled = telemetry.enabled()
    telemetry.disable()
    try:
        # Warm up: lazy imports, the index's column cursor and the
        # walk's memo of LEP bit values are built once, not per read.
        seed_batch(ErtSeedingEngine(index), reads, params)
        engine = ErtSeedingEngine(index)
        calls = _repro_calls(lambda: seed_batch(engine, reads, params))
    finally:
        if was_enabled:
            telemetry.enable()
    assert calls <= RECORDED_CALLS * ALLOWANCE, (
        f"seeding {N_READS} reads made {calls} Python calls "
        f"({calls / N_READS:.1f} per read), over the recorded "
        f"{RECORDED_CALLS} + {(ALLOWANCE - 1) * 100:.0f} %")
