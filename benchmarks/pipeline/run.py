"""The repo's benchmark: one workload through the real CLI path.

    python3 benchmarks/pipeline/run.py --workload align_se_vec_w1 \
        --seed 2021 --seconds 10 --trace 0

A run makes the workload's inputs from ``--seed`` (the program receives
only the FASTA/FASTQ/index files), runs one untimed warm-up invocation,
then repeats the full ``python -m repro.cli ...`` command as a
subprocess for ``--seconds`` seconds and checks every output.  Each
timed step sits between two readings of the measuring stick
(``calibrate.py``) and is scaled to reference-host speed; a metric is
the median of its scaled repetitions.  ``--trace 1`` follows one timed
invocation with the in-process traced run (``layers.py``) and prints
the per-layer metrics instead.  Every metric is printed by name with
its unit; the last stdout line is the result object the driver reads.
See README.md for the workloads, metrics and how they interact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass

from procs import (
    become_subreaper,
    exit_on_sigterm,
    reap_children,
    reap_group,
)
from truth import evaluate, load_truth
from workloads import (
    FULL,
    NOMINAL_CAL_S,
    QUICK,
    WORKLOADS,
    BenchmarkError,
    InputPaths,
    Sizes,
    Workload,
    build_index_argv,
    child_env,
    cli_argv,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Below this the output is grossly wrong, whatever the bytes say; finer
#: drift is what the ``correct_frac`` regression bound is for.
MIN_CORRECT_FRAC = 0.75


@dataclass(frozen=True)
class Step:
    """One timed step (a set-up or a CLI invocation), as measured, and
    the host speed around it (1.0 = reference host)."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    host_speed: float

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.host_speed

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.host_speed


class Runner:
    """Launches the program's processes with the fixed child
    environment, keeps their console output for error messages, and
    owns the measuring-stick process."""

    def __init__(self, scratch: str) -> None:
        self.env = child_env(SRC, os.path.join(scratch, "pycache"))
        self.log_path = os.path.join(scratch, "children.log")
        self._stick = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            env=self.env, cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        #: Asked of the child: importing numpy here would grow this
        #: process (see ``workloads.py``).
        self.numpy_version = self._stick.stdout.readline().strip()
        self._reading = self._read_stick()

    def close(self) -> None:
        self._stick.stdin.close()
        self._stick.stdout.close()
        self._stick.wait()

    def _read_stick(self) -> float:
        try:
            self._stick.stdin.write("\n")
            self._stick.stdin.flush()
            return float(self._stick.stdout.readline())
        except (OSError, ValueError) as exc:
            raise BenchmarkError(f"calibrate.py gave no reading: {exc}")

    def invoke(self, argv: "list[str]") -> "tuple[float, float, float]":
        """Run ``argv`` to completion: wall time from spawn to exit,
        user+sys and peak RSS (MB) of the whole process tree (``wait4``
        rusage includes reaped pool workers).  Returns once the
        command's whole process group is gone (``procs.py``)."""
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=log, start_new_session=True)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                reap_group(proc.pid, grace_s=0)
                raise
            wall = time.perf_counter() - start
            reap_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(self.log_path, errors="replace") as log_text:
                tail = log_text.read()[-2000:]
            raise BenchmarkError(
                f"{' '.join(argv)} exited with {proc.returncode}:\n{tail}")
        return (wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def step(self, *argvs: "list[str]") -> Step:
        """Run the commands back to back as one timed step, between two
        stick readings (the one after doubles as the next step's
        before)."""
        before = self._reading
        runs = [self.invoke(argv) for argv in argvs]
        self._reading = self._read_stick()
        return Step(sum(run[0] for run in runs), sum(run[1] for run in runs),
                    max((run[2] for run in runs), default=0.0),
                    2 * NOMINAL_CAL_S / (before + self._reading))


def make_inputs(runner: Runner, workload: Workload, sizes: Sizes,
                seed: int, paths: InputPaths) -> Step:
    """One set-up from nothing through the real path: FASTA + FASTQ
    generation, then ``ert-repro build-index`` (build and save)."""
    shutil.rmtree(paths.root, ignore_errors=True)
    os.makedirs(paths.root)
    return runner.step(
        [sys.executable, os.path.join(HERE, "inputs.py"),
         "--dir", paths.root, "--seed", str(seed),
         "--genome-len", str(sizes.genome_len), "--kind", workload.reads,
         "--count", str(workload.n_reads(sizes)),
         "--warm", str(sizes.warm_reads)],
        build_index_argv(paths, sizes))


def read_output(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def timed_repetitions(runner: Runner, argv: "list[str]", out_path: str,
                      seconds: float, min_reps: int) \
        -> "tuple[list[Step], bytes]":
    """Repeat ``argv`` until one more repetition would end after
    ``seconds``; output bytes must not change between repetitions."""
    reps: "list[Step]" = []
    output = b""
    begin = time.perf_counter()
    while True:
        reps.append(runner.step(argv))
        current = read_output(out_path)
        if len(reps) > 1 and current != output:
            raise BenchmarkError(
                f"output of repetition {len(reps)} differs from the first")
        output = current
        elapsed = time.perf_counter() - begin
        if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > seconds:
            return reps, output


def min_median_max(values: "list[float]") -> "dict[str, float]":
    return {"min": min(values), "median": statistics.median(values),
            "max": max(values)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        # An exported checkout: do not let git search above it.
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_record(runner: Runner) -> "dict[str, object]":
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": runner.numpy_version, "git_commit": git_commit(),
            "loadavg_1m_start": os.getloadavg()[0]}


def run_workload(runner: Runner, workload: Workload, sizes: Sizes,
                 seed: int, seconds: float, trace: bool, scratch: str,
                 out_dir: str) -> "dict[str, object]":
    host = host_record(runner)
    cpus = os.cpu_count() or 1
    if host["loadavg_1m_start"] > cpus - 1:
        print(f"warning: 1-minute load average "
              f"{host['loadavg_1m_start']:.2f} exceeds cpu_count - 1 = "
              f"{cpus - 1}; timings will be noisy", file=sys.stderr)
    if workload.workers > cpus:
        print(f"warning: {workload.name} wants {workload.workers} cores, "
              f"host has {cpus}: running oversubscribed", file=sys.stderr)

    paths = InputPaths(os.path.join(scratch, "inputs"))
    setups = [make_inputs(runner, workload, sizes, seed, paths)
              for _ in range(1 if trace else sizes.setup_reps)]
    truth = load_truth(paths.truth)

    out_path = os.path.join(scratch, workload.output_name)
    serial_path = os.path.join(scratch, "w1-" + workload.output_name)
    runner.step(cli_argv(workload, paths.index, paths.warm_reads,
                         os.path.join(scratch, "warm.out"), workers=1))
    serial: "Step | None" = None
    if workload.workers > 1:
        # The fixed-size scaling baseline: same reads at --workers 1.
        serial = runner.step(cli_argv(workload, paths.index, paths.reads,
                                      serial_path, workers=1))
    reps, output = timed_repetitions(
        runner, cli_argv(workload, paths.index, paths.reads, out_path),
        out_path, 0.0 if trace else seconds, 1 if trace else sizes.min_reps)
    if serial is not None and output != read_output(serial_path):
        raise BenchmarkError(
            f"{workload.name} output differs from --workers 1")

    n_reads = workload.n_reads(sizes)
    evaluation = evaluate(workload.command, out_path, truth,
                          sizes.genome_len)
    correct = (evaluation.failed == 0
               and evaluation.correct_frac >= MIN_CORRECT_FRAC)
    fastest = min(reps, key=lambda rep: rep.wall_s)
    record: "dict[str, object]" = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "sizes": asdict(sizes), "host": host, "reads": n_reads,
        "output_sha256": hashlib.sha256(output).hexdigest(),
        "correct_frac": evaluation.correct_frac,
        "failed_frac": evaluation.failed_frac,
        "repetitions": [asdict(rep) for rep in reps],
        "setups": [asdict(step) for step in setups],
        # As measured, not scaled to the reference host.
        "raw": {"reads_per_s_fastest": n_reads / fastest.wall_s,
                "cpu_s_fastest": fastest.cpu_s,
                "host_speed": statistics.median(
                    step.host_speed for step in setups + reps)},
        "over_repetitions": {
            "reads_per_s": min_median_max(
                [n_reads / rep.scaled_wall_s for rep in reps]),
            "cpu_s": min_median_max([rep.scaled_cpu_s for rep in reps]),
            "peak_rss_mb": min_median_max([rep.rss_mb for rep in reps]),
            "setup_s": min_median_max(
                [step.scaled_wall_s for step in setups])},
    }
    if trace:
        # Imported only now: numpy and repro must not be resident while
        # children are measured.
        sys.path.insert(0, SRC)
        from layers import traced_run
        metrics, trace_json = traced_run(
            workload, sizes, paths, runner, output,
            (serial or fastest).wall_s, seconds, scratch)
        metrics["bench.host_speed"] = (
            (fastest.host_speed + runner.step().host_speed) / 2, "ratio")
        trace_path = os.path.join(out_dir, "trace.json")
        with open(trace_path, "w") as handle:
            json.dump(trace_json, handle)
        record["trace_file"] = trace_path
    else:
        stats = record["over_repetitions"]
        metrics = {
            "reads_per_s": (stats["reads_per_s"]["median"], "1/s"),
            "cpu_s": (stats["cpu_s"]["median"], "s"),
            "peak_rss_mb": (stats["peak_rss_mb"]["max"], "MB"),
            "setup_s": (stats["setup_s"]["median"], "s"),
            "correct_frac": (evaluation.correct_frac, "ratio"),
        }
    host["loadavg_1m_end"] = os.getloadavg()[0]
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    record["result"] = {"correct": correct,
                        "attempted": evaluation.attempted,
                        "failed": evaluation.failed,
                        "metrics": record["metrics"]}
    return record


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed repetitions (--trace 0) "
                             "or traced passes (--trace 1) run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one repetition: exercises every "
                             "check in seconds, measures nothing")
    parser.add_argument("--out-dir", default=None,
                        help="where result.json / trace.json and the "
                             "scratch directory go (default: "
                             ".bench_pipeline/<workload> in the checkout)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no program to measure: {SRC}/repro/cli.py is "
              f"missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = os.path.abspath(args.out_dir or os.path.join(
        ROOT, ".bench_pipeline", workload.name))
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    runner = None
    try:
        exit_on_sigterm()
        become_subreaper()
        runner = Runner(scratch)
        record = run_workload(runner, workload,
                              QUICK if args.quick else FULL, args.seed,
                              0.0 if args.quick else args.seconds,
                              bool(args.trace), scratch, out_dir)
    except BenchmarkError as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 1
    finally:
        if runner is not None:
            runner.close()
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)
    name = "result_traced.json" if args.trace else "result.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(record, handle, indent=1)
    host, raw = record["host"], record["raw"]
    print(f"# {workload.name} seed={args.seed} reads={record['reads']} "
          f"repetitions={len(record['repetitions'])} "
          f"cpus={host['cpu_count']} load={host['loadavg_1m_start']:.2f}"
          f"->{host['loadavg_1m_end']:.2f} "
          f"host_speed={raw['host_speed']:.3f} "
          f"unscaled_fastest_reads_per_s={raw['reads_per_s_fastest']:.6g}")
    for metric, entry in record["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio")
    print(f"output_sha256 = {record['output_sha256']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
