"""The §I guarantee at benchmark scale: "100% identical output".

Runs the bit-equivalence verification (FMD == ERT == ERT-PM == batched
ERT-KR; the brute-force SMEM oracle is left to the tier-1 tests) over
the benchmark workload and reports the verified seed volume -- the
reproduction of the paper's "ERT-based seeding is bit equivalent and
fully verified" statement.
"""

import pytest

from repro.analysis import format_table
from repro.core import ErtSeedingEngine, KmerReuseDriver
from repro.fmindex import FmdSeedingEngine
from repro.seeding import compare_engines, seed_read

from conftest import record_result


def test_bit_equivalence_at_scale(benchmark, fmd_mem2_index, ert_index,
                                  ert_pm_index, reads, params):
    def run():
        fmd = FmdSeedingEngine(fmd_mem2_index)
        ert = ErtSeedingEngine(ert_index)
        ert_pm = ErtSeedingEngine(ert_pm_index)
        sample = reads[:150]
        reports = {
            "FMD vs ERT": compare_engines(fmd, ert, sample, params),
            "ERT vs ERT-PM": compare_engines(ert, ert_pm, sample, params),
        }
        # Batched k-mer reuse vs per-read, on the same engine family.
        driver = KmerReuseDriver(ErtSeedingEngine(ert_pm_index), params)
        batch = driver.seed_batch(sample)
        mismatches = sum(
            1 for read, result in zip(sample, batch)
            if result.key() != seed_read(ert_pm, read, params).key())
        return reports, mismatches, len(sample)

    reports, kr_mismatches, n = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    rows = [[name, report.reads, report.seeds, len(report.mismatches)]
            for name, report in reports.items()]
    rows.append(["ERT-PM vs ERT-KR (batched)", n, "--", kr_mismatches])
    table = format_table(
        ["comparison", "reads", "seeds compared", "mismatches"],
        rows,
        title="SI -- bit-equivalence verification (paper: output "
              "identical to BWA-MEM2 over the full 787M-read dataset)")
    record_result("verification_bit_equivalence", table)

    for name, report in reports.items():
        assert report.equivalent, name
    assert kr_mismatches == 0
