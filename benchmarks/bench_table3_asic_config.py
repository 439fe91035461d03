"""Table III: ASIC configuration, area and power, plus simulated
utilization of that configuration on the scaled workload."""

import pytest

from repro.accel import (
    ASIC_AREA_MM2,
    ASIC_POWER_W,
    AcceleratorSim,
    capture_ert_jobs,
)
from repro.analysis import format_table

from conftest import record_result


def test_table3_asic_configuration(benchmark, ert_index, reads, params,
                                   asic):
    jobs = capture_ert_jobs(ert_index, reads, params, asic.decode_cycles)
    result = benchmark.pedantic(AcceleratorSim(asic).run, args=(jobs,),
                                rounds=1, iterations=1)

    rows = [
        ["Seeding Machines", f"{asic.n_machines}x",
         ASIC_AREA_MM2["seeding_machines"],
         ASIC_POWER_W["seeding_machines"] * 1e3],
        ["K-mer Sorter + Metadata Table", "1x",
         ASIC_AREA_MM2["kmer_sorter_metadata"],
         ASIC_POWER_W["kmer_sorter_metadata"] * 1e3],
        ["K-mer Reuse Cache", "1x (4 MB direct-mapped)",
         ASIC_AREA_MM2["kmer_reuse_cache"],
         ASIC_POWER_W["kmer_reuse_cache"] * 1e3],
        ["Seeding Accelerator Total", "--", ASIC_AREA_MM2["total"],
         ASIC_POWER_W["accelerator_total"] * 1e3],
        ["DRAM Power", f"{asic.dram.channels} channels", "--",
         ASIC_POWER_W["dram"] * 1e3],
        ["Total System", "--", "--", ASIC_POWER_W["system_total"] * 1e3],
    ]
    table = format_table(
        ["component", "configuration", "area mm^2", "power mW"],
        rows,
        title=f"Table III -- ASIC configuration (28 nm, "
              f"{asic.clock_hz / 1e9:.2f} GHz, "
              f"{asic.n_machines * asic.contexts_per_machine} contexts); "
              f"simulated utilization on the scaled workload below")
    util = result.pe_utilization(asic.pes)
    util_rows = [[cls, count, f"{util[cls] * 100:.1f}%"]
                 for cls, count in asic.pes.items()]
    table += "\n\n" + format_table(
        ["PE class (per machine)", "count", "busy fraction"], util_rows)

    # DRAMPower-style cross-check of the Table III DRAM power row.
    from repro.memsim.energy import dram_energy
    power = dram_energy(result.dram_page_opens, result.dram_row_hits,
                        asic.dram.channels, result.seconds
                        ).power_w(result.seconds)
    table += "\n\n" + format_table(
        ["DRAM power model", "W"],
        [["simulated (dynamic + background)", power],
         ["paper Table III", ASIC_POWER_W["dram"]]],
        title="DRAM power cross-check (DRAMPower stand-in)")
    record_result("table3_asic_config", table)
    assert 0.1 < power < 20.0  # same order as the paper's 2.19 W

    parts = (ASIC_AREA_MM2["seeding_machines"]
             + ASIC_AREA_MM2["kmer_sorter_metadata"]
             + ASIC_AREA_MM2["kmer_reuse_cache"])
    assert parts == pytest.approx(ASIC_AREA_MM2["total"], rel=0.01)
    assert result.reads_per_second > 0
