"""CLI surface of the telemetry subsystem: --profile, --metrics-out,
the report subcommand, and output invariance with telemetry disabled."""

import json
import os

import pytest

from repro import telemetry
from repro.cli import main


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry_cli")
    ref = root / "ref.fa"
    reads = root / "reads.fq"
    index = root / "index.npz"
    assert main(["simulate-genome", "--length", "3000", "--seed", "5",
                 "--out", str(ref)]) == 0
    assert main(["simulate-reads", "--reference", str(ref), "--count", "10",
                 "--read-length", "60", "--seed", "6",
                 "--out", str(reads)]) == 0
    assert main(["build-index", "--reference", str(ref), "--k", "5",
                 "--max-seed-len", "100", "--out", str(index)]) == 0
    return root, reads, index


def test_seed_metrics_out_writes_valid_json(workspace, tmp_path):
    _root, reads, index = workspace
    metrics = tmp_path / "metrics.json"
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(tmp_path / "s.tsv"),
                 "--metrics-out", str(metrics)]) == 0
    snap = json.loads(metrics.read_text())
    assert snap["counters"]["seeding.reads"] == 10
    # All 10 reads are seeded in one batch: one `seed` root span
    # wrapping one `kernels.batch` span.
    assert snap["spans"]["seed"]["count"] == 1
    assert snap["spans"]["seed/kernels.batch"]["count"] == 1
    # The command cleans up after itself: the global flag is off again
    # and the process-wide registry holds nothing of the run.
    assert not telemetry.enabled()
    assert telemetry.registry().is_empty


def test_failed_run_leaves_the_registry_empty(workspace, tmp_path):
    """A run that fails part-way, after a batch was seeded, writes no
    snapshot and leaves no counter behind either."""
    _root, reads, index = workspace
    bad = tmp_path / "bad.fq"
    bad.write_text(reads.read_text() + "@bad\nACGT\n+\nII\n")
    metrics = tmp_path / "metrics.json"
    assert main(["seed", "--index", str(index), "--reads", str(bad),
                 "--min-seed-len", "12", "--batch-size", "4",
                 "--out", str(tmp_path / "s.tsv"),
                 "--metrics-out", str(metrics)]) == 2
    assert not metrics.exists()
    assert not telemetry.enabled()
    assert telemetry.registry().is_empty


def test_align_profile_prints_stage_table(workspace, tmp_path, capsys):
    _root, reads, index = workspace
    metrics = tmp_path / "metrics.json"
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(tmp_path / "o.sam"),
                 "--profile", "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "per-stage wall clock" in out
    for stage in ("align", "chain", "extend", "seed", "kernels.batch"):
        assert stage in out
    snap = json.loads(metrics.read_text())
    # Per-stage spans nest under align and sum consistently: children's
    # inclusive time can never exceed the root's.
    root_total = snap["spans"]["align"]["total_s"]
    child_total = sum(stat["total_s"] for path, stat in
                      snap["spans"].items()
                      if path.count("/") == 1 and path.startswith("align/"))
    assert child_total <= root_total + 1e-9
    assert snap["counters"]["align.reads"] == 10
    assert snap["counters"]["seeding.index_lookups"] > 0


def test_report_renders_saved_snapshot(workspace, tmp_path, capsys):
    _root, reads, index = workspace
    metrics = tmp_path / "metrics.json"
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(tmp_path / "o.sam"),
                 "--metrics-out", str(metrics)]) == 0
    capsys.readouterr()
    assert main(["report", "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "per-stage wall clock" in out
    assert "extend" in out
    assert "counters" in out


def test_outputs_identical_with_and_without_telemetry(workspace, tmp_path):
    _root, reads, index = workspace
    plain_tsv = tmp_path / "plain.tsv"
    traced_tsv = tmp_path / "traced.tsv"
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(plain_tsv)]) == 0
    assert telemetry.registry().is_empty  # default run records nothing
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(traced_tsv),
                 "--metrics-out", str(tmp_path / "m.json")]) == 0
    assert traced_tsv.read_bytes() == plain_tsv.read_bytes()

    plain_sam = tmp_path / "plain.sam"
    traced_sam = tmp_path / "traced.sam"
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(plain_sam)]) == 0
    assert main(["align", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(traced_sam),
                 "--profile"]) == 0
    assert traced_sam.read_bytes() == plain_sam.read_bytes()


def test_seed_reports_truncated_hit_lists(workspace, tmp_path, capsys):
    _root, reads, index = workspace
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--max-hits", "1",
                 "--out", str(tmp_path / "t.tsv")]) == 0
    err = capsys.readouterr().err
    assert "truncated by --max-hits 1" in err


def test_report_has_no_format_option(workspace, tmp_path, capsys):
    """``report`` renders the profile table, its one job: the removed
    ``--format`` -- even with its old default value -- is an argparse
    error, not a silently ignored flag."""
    with pytest.raises(SystemExit) as exc:
        main(["report", "--metrics", str(tmp_path / "m.json"),
              "--format", "profile"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, '{"counters": ', "[1, 2]"],
                         ids=["missing", "truncated", "non-object"])
def test_report_unreadable_snapshot_is_one_line_exit_2(tmp_path, capsys,
                                                       content):
    metrics = tmp_path / "metrics.json"
    if content is not None:
        metrics.write_text(content)
    assert main(["report", "--metrics", str(metrics)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ert-repro report: ")
    assert captured.err.count("\n") == 1
    assert str(metrics) in captured.err


@pytest.mark.parametrize("kernels", ["scalar", "vector"])
@pytest.mark.parametrize("command", ["seed", "align"])
def test_pooled_snapshot_has_no_gauges_and_no_bucket_exemplars(
        workspace, tmp_path, command, kernels):
    """Gauges are an in-process (model-run) kind: no pool worker sets
    one, which is why ``merge_snapshot`` needs no cross-worker gauge
    order.  Histograms carry buckets only -- no per-bucket exemplars, no
    stored percentiles."""
    _root, reads, index = workspace
    metrics = tmp_path / "metrics.json"
    assert main([command, "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(tmp_path / "out"),
                 "--workers", "2", "--batch-size", "4",
                 "--kernels", kernels,
                 "--metrics-out", str(metrics)]) == 0
    snap = json.loads(metrics.read_text())
    assert snap["gauges"] == {}
    assert snap["histograms"]["read.wall_ms"]["count"] == 10
    for name, hist in snap["histograms"].items():
        assert sorted(hist) == ["count", "counts", "edges", "max", "min",
                                "total"], name


def test_slowlog_flag_writes_exemplar_jsonl(workspace, tmp_path):
    _root, reads, index = workspace
    slowlog = tmp_path / "slow.jsonl"
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(tmp_path / "s.tsv"),
                 "--workers", "2", "--slowlog", str(slowlog)]) == 0
    entries = [json.loads(line)
               for line in slowlog.read_text().splitlines()]
    assert entries
    sources = {e["source"] for e in entries}
    assert sources <= {"slowest", "reservoir"}
    by_id = {e["read_id"] for e in entries if e["source"] == "slowest"}
    assert len(by_id) > 0
    for entry in entries:
        assert entry["task"] == "seed"
        assert entry["wall_ms"] >= 0
        assert isinstance(entry["counters"], dict)


def test_log_jsonl_flag_captures_pool_lifecycle(workspace, tmp_path):
    _root, reads, index = workspace
    log = tmp_path / "events.jsonl"
    assert main(["seed", "--index", str(index), "--reads", str(reads),
                 "--min-seed-len", "12", "--out", str(tmp_path / "s.tsv"),
                 "--workers", "2", "--log-jsonl", str(log)]) == 0
    from repro import logging as rlog
    assert not rlog.configured()  # the command shut the sink down
    events = [json.loads(line) for line in log.read_text().splitlines()]
    names = {e["event"] for e in events}
    assert {"pool.spawn", "index.map"} <= names
    assert not {"shm.create", "shm.unlink"} & names
    maps = [e for e in events if e["event"] == "index.map"]
    assert len(maps) == 2  # one per worker
    for event in maps:
        assert event["path"] == os.path.abspath(index)
        assert event["bytes"] == os.path.getsize(index)
        assert event["crc_ms"] >= 0
    spawn = next(e for e in events if e["event"] == "pool.spawn")
    assert spawn["workers"] == 2
    assert spawn["subsystem"] == "parallel.scheduler"
