"""Tests for the DRAM energy model (DRAMPower stand-in)."""

import pytest

from repro.memsim import DramConfig, DramModel
from repro.memsim.energy import (
    DramEnergyConfig,
    DramEnergyReport,
    dram_energy,
)


def _energy(dram, seconds):
    return dram_energy(dram.total.page_opens, dram.total.row_hits,
                       dram.config.channels, seconds)


def _loaded_dram(n_accesses=1000, stride=4096):
    dram = DramModel(DramConfig(channels=2, banks_per_channel=4))
    for i in range(n_accesses):
        dram.access(i * stride)
    return dram


def test_energy_components_positive():
    report = _energy(_loaded_dram(), 1e-3)
    assert report.activate_j > 0
    assert report.read_j > 0
    assert report.background_j > 0
    assert report.total_j == pytest.approx(
        report.activate_j + report.read_j + report.background_j)


def test_row_hits_cost_less_than_misses():
    """A streaming pattern (row hits) must use less dynamic energy than a
    scattered one with the same access count."""
    streaming = DramModel(DramConfig(channels=1, banks_per_channel=1))
    scattered = DramModel(DramConfig(channels=1, banks_per_channel=1))
    for i in range(500):
        streaming.access(i * 64)            # sequential: mostly row hits
        scattered.access(i * 64 * 1024)     # one page open per access
    e_stream = _energy(streaming, 0)
    e_scatter = _energy(scattered, 0)
    assert e_scatter.activate_j > e_stream.activate_j
    assert e_scatter.total_j > e_stream.total_j


def test_power_scaling():
    report = DramEnergyReport(activate_j=1e-6, read_j=1e-6,
                              background_j=0.0)
    assert report.power_w(1e-3) == pytest.approx(2e-3)
    with pytest.raises(ValueError):
        report.power_w(0)


def test_background_scales_with_channels_and_time():
    few = _energy(DramModel(DramConfig(channels=2)), 1.0)
    many = _energy(DramModel(DramConfig(channels=8)), 1.0)
    assert many.background_j == pytest.approx(4 * few.background_j)


def test_config_validation():
    with pytest.raises(ValueError):
        DramEnergyConfig(activate_nj=-1)
