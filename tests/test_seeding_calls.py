"""A deterministic guard on the Python calls seeding makes per read.

Seeding a read pays for the interpreter calls made around its walks as
well as for the walks (docs/performance.md, "Seeding: calls per read").
This counts the ``sys.setprofile`` ``call`` events whose code lives
under ``src/repro`` while :func:`~repro.seeding.algorithm.seed_batch`
seeds 200 reads of the pipeline benchmark's read model (10 kbp genome,
seed 2021, k = 6), and fails when the count grows more than 2 % past
the figure recorded here, which one more call a read exceeds.  A count
does not depend on the host's speed, so the gate is exact where a
timing would be noise.

A second row counts the calls the ``seed`` runner makes turning those
reads' results into TSV lines.  On failure each guard prints the ten
functions with the most calls, so an overrun names its layer.

Comprehension and generator-expression frames are left out: Python 3.12
inlines comprehensions (no frame, no event) where 3.9 gives each one a
frame, and a generator reports a ``call`` at every resumption.
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro import telemetry
from repro.core import ErtConfig, ErtSeedingEngine, build_ert
from repro.parallel.scheduler import _tsv_lines
from repro.seeding.algorithm import SeedingParams, seed_batch
from repro.sequence import GenomeSimulator, ReadSimulator

#: Python calls under ``src/repro`` for the 200 reads below, and the
#: growth allowed: under one call a read (2 % of 47 a read).
RECORDED_CALLS = 9_433
ALLOWANCE = 1.02
#: ... and for their TSV lines (one call a read: 5 % is 0.05 a read).
RECORDED_TSV_CALLS = 201
TSV_ALLOWANCE = 1.05
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


def _repro_calls(fn) -> "Counter[str]":
    """``call`` events of code under ``src/repro`` while ``fn`` runs, by
    function (``path/under/repro.py:name``)."""
    seen: "Counter[object]" = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(PACKAGE)
                    and code.co_name not in SKIPPED):
                seen[code] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    calls: "Counter[str]" = Counter()
    for code, n in seen.items():
        calls[f"{code.co_filename[len(PACKAGE):]}:{code.co_name}"] += n
    return calls


def over_budget(what: str, calls: "Counter[str]", recorded: int,
                allowance: float, n_reads: int) -> str:
    """The failure message of a census guard: the total against the
    recorded count, then the ten functions with the most calls."""
    total = sum(calls.values())
    lines = [f"{what} {n_reads} reads made {total} Python calls "
             f"({total / n_reads:.1f} per read), over the recorded "
             f"{recorded} + {(allowance - 1) * 100:.0f} %; most calls:"]
    lines += [f"  {n:7d} {n / n_reads:7.2f} a read  {name}"
              for name, n in calls.most_common(10)]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def seeded(benchmark_model):
    """The guard's seed_batch call count, and the results it made."""
    index, reads = benchmark_model
    params = SeedingParams(min_seed_len=19, max_hits_per_seed=500)
    was_enabled = telemetry.enabled()
    telemetry.disable()
    try:
        # Warm up: lazy imports, the index's column cursor and the
        # walk's memo of LEP bit values are built once, not per read.
        seed_batch(ErtSeedingEngine(index), reads, params)
        engine = ErtSeedingEngine(index)
        results = []
        calls = _repro_calls(lambda: results.extend(
            seed_batch(engine, reads, params)))
    finally:
        if was_enabled:
            telemetry.enable()
    return calls, results


def test_seed_batch_calls_per_read(seeded):
    calls, _results = seeded
    assert sum(calls.values()) <= RECORDED_CALLS * ALLOWANCE, over_budget(
        "seeding", calls, RECORDED_CALLS, ALLOWANCE, N_READS)


def test_seed_tsv_calls_per_read(seeded):
    """The ``seed`` runner's emission: every seed of every read to a
    TSV line."""
    _calls, results = seeded
    names = [f"read{i}" for i in range(N_READS)]
    calls = _repro_calls(lambda: _tsv_lines(names, results))
    assert sum(calls.values()) <= RECORDED_TSV_CALLS * TSV_ALLOWANCE, \
        over_budget("the TSV lines of", calls, RECORDED_TSV_CALLS,
                    TSV_ALLOWANCE, N_READS)
