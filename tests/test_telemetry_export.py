"""Exporters: trace documents on disk, bucket percentiles, and the
profile report's percentile columns."""

import json

import pytest

from repro import telemetry
from repro.telemetry.export import render_profile, write_trace
from repro.telemetry.metrics import Histogram, bucket_percentile


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    telemetry.stop_recording()
    telemetry.recorder().clear()
    yield
    telemetry.disable()
    telemetry.reset()
    telemetry.stop_recording()
    telemetry.recorder().clear()


# ----------------------------------------------------------------------
# Trace round-trip
# ----------------------------------------------------------------------


def test_write_trace_round_trip(tmp_path):
    telemetry.enable()
    telemetry.start_recording()
    with telemetry.span("stage"):
        telemetry.instant("mark", {"n": 1})
    telemetry.stop_recording()
    doc = telemetry.current_trace()
    path = tmp_path / "trace.json"
    write_trace(path, doc)
    loaded = json.loads(path.read_text())
    assert loaded == doc
    assert loaded["displayTimeUnit"] == "ms"
    names = [e["name"] for e in loaded["traceEvents"]]
    assert "stage" in names and "mark" in names


def test_write_trace_is_compact_single_document(tmp_path):
    telemetry.start_recording()
    telemetry.instant("x")
    telemetry.stop_recording()
    path = tmp_path / "trace.json"
    write_trace(path, telemetry.current_trace())
    text = path.read_text()
    assert ": " not in text, "trace files are compact JSON"
    assert text.endswith("\n") and text.count("\n") == 1


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_bucket_percentile_edge_cases():
    assert bucket_percentile((10.0,), [0, 0], 0, None, None, 0.5) is None
    with pytest.raises(ValueError):
        bucket_percentile((10.0,), [1, 0], 1, 1.0, 1.0, 0.0)
    # Everything in one bucket: interpolation stays within [min, edge].
    value = bucket_percentile((10.0, 20.0), [4, 0, 0], 4, 2.0, 8.0, 0.5)
    assert 2.0 <= value <= 10.0


def test_histogram_percentile_tracks_distribution_shift():
    fast = Histogram(edges=(1.0, 2.0, 4.0, 8.0))
    slow = Histogram(edges=(1.0, 2.0, 4.0, 8.0))
    for _ in range(100):
        fast.observe(1.5)
        slow.observe(6.0)
    assert fast.percentile(0.9) < slow.percentile(0.9)


# ----------------------------------------------------------------------
# Profile report
# ----------------------------------------------------------------------


def _snapshot_with_histogram(hist_dict):
    return {"counters": {"seeding.reads": 10}, "gauges": {},
            "histograms": {"seed.hits": hist_dict},
            "spans": {"seed": {"count": 1, "total_s": 0.5,
                               "self_s": 0.5}}}


def test_render_profile_has_percentile_columns():
    hist = Histogram(edges=(2.0, 8.0, 32.0))
    for value in (1, 3, 5, 9, 40):
        hist.observe(value)
    text = render_profile(_snapshot_with_histogram(hist.as_dict()))
    header = next(line for line in text.splitlines()
                  if line.startswith("histogram"))
    for column in ("p50", "p90", "p99"):
        assert column in header


def test_render_profile_empty_histogram_shows_dashes():
    empty = Histogram().as_dict()
    text = render_profile(_snapshot_with_histogram(empty))
    row = next(line for line in text.splitlines()
               if line.startswith("seed.hits"))
    assert row.split()[-3:] == ["-", "-", "-"]
