"""End-to-end check of the benchmark itself in ``--quick`` mode.

    PYTHONPATH=src python -m pytest benchmarks/pipeline

Every workload runs once untraced and once traced (about 40 s in all);
the checks are the benchmark's contract with ``BENCHMARK.json``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from procs import become_subreaper, reap_children
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)$")


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{(workload, trace): (stdout lines, out dir)}`` for every
    workload, plus what the runs left in ``/dev/shm`` and how many
    processes outlived their run (as this process's sub-reaped
    children: the driver refuses a benchmark that leaves even one)."""
    before = shm_segments()
    become_subreaper()
    done = {"orphans": 0}
    for name in WORKLOADS:
        out_dir = tmp_path_factory.mktemp(name)
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--quick",
                 "--trace", str(trace), "--out-dir", str(out_dir)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            done["orphans"] += reap_children()
            done[name, trace] = (proc.stdout.splitlines(), out_dir)
    done["leaked_shm"] = shm_segments() - before
    return done


def printed_metrics(lines):
    return {m.group(1): m.group(3)
            for m in map(METRIC_LINE.match, lines) if m}


def test_spec_names_the_workloads_and_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/pipeline/run.py"]
    assert SPEC["paths"] == ["benchmarks/pipeline"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(runs, name):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        lines, _ = runs[name, trace]
        printed = printed_metrics(lines)
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        for metric, unit in expected.items():
            assert printed.get(metric) == unit, metric
    for entry in json.loads(runs[name, 0][0][-1])["metrics"].values():
        assert entry["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_add_up_to_the_roots(runs, name):
    _, out_dir = runs[name, 1]
    with open(out_dir / "trace.json") as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    assert all(span["workload"] == name for span in spans)
    roots = sum(s["end_s"] - s["start_s"] for s in spans
                if s["parent"] < 0)
    assert roots > 0
    assert sum(trace["self_s"].values()) == pytest.approx(roots, rel=0.01)
    # Children nest inside their parent, so no self time is negative.
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_s"] <= span["start_s"]
            assert span["end_s"] <= parent["end_s"]
    assert min(trace["self_s"].values()) >= -1e-9


def test_outputs_agree_between_cli_trace_and_worker_counts(runs):
    def digest(name, trace):
        lines, _ = runs[name, trace]
        return next(line.split(" = ")[1] for line in lines
                    if line.startswith("output_sha256 = "))
    # A traced run fails unless its replay wrote the CLI's bytes; the
    # digest also ties the untraced and traced runs of a seed together.
    for name in WORKLOADS:
        assert digest(name, 0) == digest(name, 1)
    assert digest("align_se_vec_w2", 0) == digest("align_se_vec_w1", 0)


def test_nothing_is_left_behind(runs):
    assert not runs["leaked_shm"]
    assert runs["orphans"] == 0
    for name in WORKLOADS:
        _, out_dir = runs[name, 0]
        assert sorted(os.listdir(out_dir)) == [
            "result.json", "result_traced.json", "trace.json"]


def test_results_carry_the_host_record(runs):
    _, out_dir = runs["seed_se_vec_w1", 0]
    with open(out_dir / "result.json") as handle:
        record = json.load(handle)
    assert set(record["host"]) >= {
        "cpu_count", "cpu_model", "python", "numpy", "git_commit",
        "loadavg_1m_start", "loadavg_1m_end"}
    for stats in record["over_repetitions"].values():
        assert stats["min"] <= stats["median"] <= stats["max"]


def test_fails_without_printing_a_result_when_the_program_is_absent(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "seed_se_vec_w1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
