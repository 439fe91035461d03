"""Shared benchmark workload and result reporting.

Every benchmark regenerates one of the paper's tables or figures on the
scaled synthetic workload (see DESIGN.md's substitution table): a 30 kbp
repeat-rich genome, 101 bp Illumina-like reads with the paper's ~80/20
perfect/erroneous mix, k = 8 (density-matched to the paper's k = 15 at
3 Gbp), min_seed_len = 19.

Reproduced rows are registered with :func:`record_result`; they are
written to ``benchmarks/results/<name>.txt`` and echoed in the pytest
terminal summary so ``pytest benchmarks/ --benchmark-only`` shows them.
"""

from pathlib import Path

import pytest

from repro.accel import asic_config, fpga_config
from repro.core import ErtConfig, build_ert
from repro.fmindex import FmdConfig, FmdIndex
from repro.seeding import SeedingParams
from repro.sequence import GenomeSimulator, ReadSimulator

GENOME_LEN = 30_000
N_READS = 500
READ_LEN = 101

_RESULTS: "list[tuple[str, str]]" = []
RESULTS_DIR = Path(__file__).parent / "results"


def record_result(name: str, table: str) -> None:
    """Register one reproduced table/figure for reporting."""
    _RESULTS.append((name, table))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("reproduced paper tables and figures")
    for name, table in _RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {name} ===")
        for line in table.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def reference():
    return GenomeSimulator(seed=2021).generate(GENOME_LEN)


@pytest.fixture(scope="session")
def reads(reference):
    sim = ReadSimulator(reference, read_length=READ_LEN,
                        error_read_fraction=0.2, seed=2022)
    return [r.codes for r in sim.simulate(N_READS)]


@pytest.fixture(scope="session")
def params():
    return SeedingParams(min_seed_len=19)


@pytest.fixture(scope="session")
def fmd_mem_index(reference):
    return FmdIndex(reference, FmdConfig.bwa_mem())


@pytest.fixture(scope="session")
def fmd_mem2_index(reference):
    return FmdIndex(reference, FmdConfig.bwa_mem2())


@pytest.fixture(scope="session")
def ert_cfg():
    return ErtConfig(k=8, max_seed_len=151, table_threshold=64, table_x=4)


@pytest.fixture(scope="session")
def ert_index(reference, ert_cfg):
    return build_ert(reference, ert_cfg)


@pytest.fixture(scope="session")
def ert_pm_index(reference):
    return build_ert(reference, ErtConfig(
        k=8, max_seed_len=151, table_threshold=64, table_x=4,
        prefix_merging=True))


@pytest.fixture(scope="session")
def asic():
    return asic_config()


@pytest.fixture(scope="session")
def fpga():
    return fpga_config()
