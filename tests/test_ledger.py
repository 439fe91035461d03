"""The benchmark run-ledger: snapshot metrics, manifests, the JSONL
file, run-over-run diffing, and the ``ert-repro ledger`` CLI exit
codes (0 clean / 1 regression / 2 bad invocation)."""

import json
import os

import pytest

from repro.ledger import (
    LEDGER_SCHEMA,
    MetricDelta,
    append_record,
    build_record,
    diff_records,
    env_fingerprint,
    is_throughput_metric,
    last_runs,
    read_ledger,
    render_diff,
    snapshot_metrics,
)
from repro.ledger.cli import main as ledger_main
from repro.ledger.records import benchmarks_in


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


def test_snapshot_metrics_derives_throughput():
    snap = {
        "spans": {"seed": {"total_s": 2.0, "count": 3},
                  "seed/kernels.batch": {"total_s": 1.0}},
        "counters": {"seeding.reads": 500, "seeding.seeds": 1200},
    }
    out = snapshot_metrics(snap)
    assert out["span.seed.total_s"] == 2.0
    assert "span.seed/kernels.batch.total_s" not in out, "child spans excluded"
    assert out["counter.seeding.reads"] == 500.0
    assert out["seeding.reads_per_sec"] == 250.0


def test_snapshot_metrics_without_seed_span_has_no_derived_rate():
    out = snapshot_metrics({"spans": {}, "counters": {"seeding.reads": 5}})
    assert "seeding.reads_per_sec" not in out


# ----------------------------------------------------------------------
# Records and the JSONL file
# ----------------------------------------------------------------------


def test_env_fingerprint_shape():
    env = env_fingerprint()
    assert set(env) == {"python", "implementation", "platform",
                        "machine", "cpu_count"}


def test_build_append_read_round_trip(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    record = build_record("seed_bench", {"reads_per_sec": 123.0},
                          label="run-a",
                          workload={"reads": 500},
                          recorded_at="2026-08-06T00:00:00+00:00")
    assert record["schema"] == LEDGER_SCHEMA
    append_record(path, record)
    append_record(path, build_record("seed_bench",
                                     {"reads_per_sec": 130.0},
                                     recorded_at="t2"))
    records = read_ledger(path)
    assert len(records) == 2
    assert records[0] == record
    assert records[0]["workload"] == {"reads": 500}


def test_append_creates_parent_directories(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "ledger.jsonl")
    append_record(path, build_record("b", {"m": 1.0}, recorded_at="t"))
    assert len(read_ledger(path)) == 1


def test_read_missing_ledger_is_empty():
    assert read_ledger("/nonexistent/ledger.jsonl") == []


def test_read_malformed_line_raises_with_line_number(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text('{"schema": 1}\nnot json\n')
    with pytest.raises(ValueError, match=r"ledger\.jsonl:2"):
        read_ledger(str(path))
    path.write_text('[1, 2]\n')
    with pytest.raises(ValueError, match="not a JSON object"):
        read_ledger(str(path))


def test_last_runs_windows_per_benchmark():
    records = [build_record("a", {"m": float(i)}, recorded_at=f"t{i}")
               for i in range(4)]
    records.insert(2, build_record("b", {"m": 9.0}, recorded_at="tb"))
    window = last_runs(records, "a")
    assert [r["metrics"]["m"] for r in window] == [2.0, 3.0]
    assert last_runs(records, "missing") == []
    assert benchmarks_in(records) == ["a", "b"]


# ----------------------------------------------------------------------
# Diffing and the regression gate
# ----------------------------------------------------------------------


def test_is_throughput_metric_by_name():
    assert is_throughput_metric("seeding.reads_per_sec")
    assert is_throughput_metric("workers.2.THROUGHPUT")
    assert not is_throughput_metric("span.seed.total_s")


def _rec(metrics, schema=LEDGER_SCHEMA):
    return {"schema": schema, "metrics": metrics, "recorded_at": "t",
            "label": ""}


def test_diff_flags_only_throughput_drops_beyond_threshold():
    previous = _rec({"reads_per_sec": 100.0, "span.seed.total_s": 1.0,
                     "only_prev": 1.0})
    current = _rec({"reads_per_sec": 85.0, "span.seed.total_s": 5.0,
                    "only_curr": 1.0})
    deltas = diff_records(previous, current, threshold=0.10)
    by_name = {d.name: d for d in deltas}
    assert set(by_name) == {"reads_per_sec", "span.seed.total_s"}
    assert by_name["reads_per_sec"].regression
    assert by_name["reads_per_sec"].change == pytest.approx(-0.15)
    # 5x slower wall clock is reported but never gates.
    assert not by_name["span.seed.total_s"].regression


def test_diff_within_threshold_is_clean():
    deltas = diff_records(_rec({"reads_per_sec": 100.0}),
                          _rec({"reads_per_sec": 95.0}),
                          threshold=0.10)
    assert not any(d.regression for d in deltas)


def test_diff_zero_previous_value_has_no_change_ratio():
    delta, = diff_records(_rec({"reads_per_sec": 0.0}),
                          _rec({"reads_per_sec": 5.0}))
    assert delta.change is None and not delta.regression
    assert "n/a" in delta.describe()


def test_diff_schema_mismatch_raises():
    with pytest.raises(ValueError, match="schema"):
        diff_records(_rec({}, schema=1), _rec({}, schema=2))


def test_delta_describe_marks_regressions():
    good = MetricDelta("m_per_sec", 100.0, 99.0, -0.01, False)
    bad = MetricDelta("m_per_sec", 100.0, 50.0, -0.50, True)
    assert "REGRESSION" not in good.describe()
    assert "<< REGRESSION" in bad.describe()


def test_render_diff_mentions_regression_count():
    previous = _rec({"m_per_sec": 100.0})
    current = _rec({"m_per_sec": 50.0})
    deltas = diff_records(previous, current)
    text = render_diff("bench", previous, current, deltas)
    assert "== bench ==" in text
    assert "1 throughput regression(s)" in text


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------


def test_cli_record_then_diff_clean_exits_zero(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.jsonl")
    for rate in (100.0, 99.0):
        assert ledger_main(["record", "--ledger", ledger,
                            "--benchmark", "seed",
                            "--metric", f"reads_per_sec={rate}"]) == 0
    capsys.readouterr()
    assert ledger_main(["diff", "--ledger", ledger,
                        "--benchmark", "seed"]) == 0
    assert "reads_per_sec" in capsys.readouterr().out


def test_cli_diff_exits_one_on_synthetic_regression(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.jsonl")
    for rate in (100.0, 75.0):  # -25%, beyond the default 10%
        assert ledger_main(["record", "--ledger", ledger,
                            "--benchmark", "seed",
                            "--metric", f"reads_per_sec={rate}"]) == 0
    capsys.readouterr()
    assert ledger_main(["diff", "--ledger", ledger]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # A looser threshold lets the same pair pass.
    assert ledger_main(["diff", "--ledger", ledger,
                        "--threshold", "0.30"]) == 0


def test_cli_diff_insufficient_runs(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.jsonl")
    assert ledger_main(["record", "--ledger", ledger,
                        "--benchmark", "seed",
                        "--metric", "reads_per_sec=1"]) == 0
    capsys.readouterr()
    # Named benchmark with one run: a hard error for CI wiring bugs.
    assert ledger_main(["diff", "--ledger", ledger,
                        "--benchmark", "seed"]) == 2
    # All-benchmarks mode with nothing diffable: informational, clean.
    assert ledger_main(["diff", "--ledger", ledger]) == 0


def test_cli_record_with_no_metrics_exits_two(tmp_path, capsys):
    assert ledger_main(["record",
                        "--ledger", str(tmp_path / "l.jsonl"),
                        "--benchmark", "seed"]) == 2
    assert "nothing to record" in capsys.readouterr().err


def test_cli_record_from_snapshot(tmp_path, capsys):
    snap = tmp_path / "metrics.json"
    snap.write_text(json.dumps({
        "spans": {"seed": {"total_s": 2.0}},
        "counters": {"seeding.reads": 500},
        "gauges": {},
        "histograms": {},
    }))
    ledger = str(tmp_path / "ledger.jsonl")
    assert ledger_main(["record", "--ledger", ledger,
                        "--benchmark", "seed", "--label", "ci",
                        "--metrics", str(snap),
                        "--metric", "counter.seeding.reads=501"]) == 0
    record, = read_ledger(ledger)
    metrics = record["metrics"]
    assert metrics["seeding.reads_per_sec"] == 250.0
    assert metrics["counter.seeding.reads"] == 501.0, \
        "--metric must override derived values"
    assert record["telemetry"]["spans"]["seed"] == 2.0


def test_cli_record_unreadable_inputs_exit_two(tmp_path, capsys):
    ledger = str(tmp_path / "l.jsonl")
    assert ledger_main(["record", "--ledger", ledger,
                        "--benchmark", "b",
                        "--metrics", str(tmp_path / "missing.json")
                        ]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert ledger_main(["record", "--ledger", ledger,
                        "--benchmark", "b",
                        "--metrics", str(bad)]) == 2
    assert not os.path.exists(ledger)


def test_cli_corrupt_ledger_exits_two(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text("garbage\n")
    assert ledger_main(["diff", "--ledger", str(ledger)]) == 2
