"""Unit tests for the DRAM row-buffer model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memsim import DramConfig, DramModel


def test_same_row_hits_after_open():
    dram = DramModel(DramConfig(channels=1, banks_per_channel=1,
                                row_size=2048))
    assert not dram.access(0, "p")
    assert dram.access(64, "p")
    assert dram.access(2000, "p")
    assert not dram.access(2048, "p")  # next row
    assert dram.total.page_opens == 2
    assert dram.total.row_hits == 2


def test_per_phase_attribution():
    dram = DramModel(DramConfig(channels=1, banks_per_channel=1))
    dram.access(0, "a")
    dram.access(64, "b")
    assert dram.by_phase["a"].page_opens == 1
    assert dram.by_phase["b"].row_hits == 1


def test_banks_hold_independent_rows():
    cfg = DramConfig(channels=1, banks_per_channel=2, row_size=2048)
    dram = DramModel(cfg)
    dram.access(0)           # bank 0, row 0
    dram.access(2048)        # bank 1, row 0
    assert dram.access(64)   # bank 0 still open
    assert dram.access(2100)  # bank 1 still open


def test_channel_interleaving():
    cfg = DramConfig(channels=2, banks_per_channel=1, row_size=2048)
    dram = DramModel(cfg)
    ch0, _, _ = dram._map(0)
    ch1, _, _ = dram._map(2048)
    assert {ch0, ch1} == {0, 1}


def test_access_latency_hit_vs_miss():
    cfg = DramConfig(channels=1, banks_per_channel=1, t_hit=20, t_miss=45,
                     cycles_per_line=4)
    dram = DramModel(cfg)
    first = dram.access_latency(0, now=0)
    assert first == 45
    second = dram.access_latency(64, now=100)
    assert second == 120


def test_access_latency_queueing():
    cfg = DramConfig(channels=1, banks_per_channel=1, t_hit=20, t_miss=45,
                     cycles_per_line=4)
    dram = DramModel(cfg)
    # Two back-to-back requests at cycle 0: the second starts 4 cycles in.
    a = dram.access_latency(0, now=0)
    b = dram.access_latency(64, now=0)
    assert a == 45
    assert b == 4 + 20


def test_config_validation():
    with pytest.raises(ValueError):
        DramConfig(channels=0)
    with pytest.raises(ValueError):
        DramConfig(row_size=100, line_size=64)


def test_hit_rate_property():
    dram = DramModel(DramConfig(channels=1, banks_per_channel=1))
    assert dram.total.hit_rate == 0.0
    dram.access(0)
    dram.access(64)
    assert dram.total.hit_rate == 0.5


@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=1,
                max_size=100))
def test_single_row_working_set_opens_once(offsets):
    """Accesses confined to one row cause exactly one page open."""
    dram = DramModel(DramConfig(channels=1, banks_per_channel=1,
                                row_size=2048))
    for off in offsets:
        dram.access(off)
    assert dram.total.page_opens == 1


@given(st.lists(st.integers(min_value=0, max_value=1 << 24), max_size=200))
def test_opens_never_exceed_accesses(addrs):
    dram = DramModel()
    for addr in addrs:
        dram.access(addr)
    assert dram.total.page_opens <= max(len(addrs), 0) or not addrs
    assert dram.total.accesses == len(addrs)


def test_row_conflicts_subdivide_page_opens():
    """A page open against a bank holding a different row is a conflict;
    the first touch of a cold bank is not."""
    dram = DramModel(DramConfig(channels=1, banks_per_channel=1,
                                row_size=2048))
    dram.access(0)        # cold open
    dram.access(2048)     # different row -> conflict
    dram.access(2048 + 64)  # hit
    assert dram.total.page_opens == 2
    assert dram.total.row_conflicts == 1
    assert dram.total.row_hits == 1


def test_dram_publish_metrics_gauges():
    from repro import telemetry

    dram = DramModel(DramConfig(channels=1, banks_per_channel=1,
                                row_size=2048))
    dram.access(0, "tree_traversal")
    dram.access(4096, "tree_traversal")
    dram.publish_metrics()
    assert telemetry.registry().is_empty  # disabled -> publish is a no-op
    telemetry.reset()
    telemetry.enable()
    try:
        dram.publish_metrics()
        gauges = telemetry.snapshot()["gauges"]
        assert gauges["memsim.dram.page_opens"] == 2
        assert gauges["memsim.dram.row_conflicts"] == 1
        assert gauges["memsim.dram.page_opens.tree-traversal"] == 2
    finally:
        telemetry.disable()
        telemetry.reset()
