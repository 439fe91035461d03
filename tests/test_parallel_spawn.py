"""The pool under the ``spawn`` start method.

Linux defaults to ``fork``, which the rest of the parallel suite uses
for speed; ``spawn`` is what macOS/Windows get and what
``ParallelConfig(start_method=...)`` exposes.  Spawned workers share
nothing with the parent -- telemetry state, the exemplar collector and
the timeline recorder all start empty in each worker -- so these tests
prove the worker-boundary merge carries everything home: output stays
byte-identical, per-read exemplars arrive with the right count, and
worker timeline tracks land in the parent trace.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.parallel import ParallelConfig, seed_reads
from repro.telemetry.events import trace_document


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


def spawn_config(batch_size=8):
    return ParallelConfig(workers=2, batch_size=batch_size,
                          start_method="spawn")


def test_spawn_pool_matches_serial_byte_for_byte(ert_index, read_codes,
                                                 params):
    serial_lines, serial_stats = seed_reads(
        ert_index, read_codes, params, ParallelConfig(workers=1))
    lines, stats = seed_reads(ert_index, read_codes, params,
                              spawn_config())
    assert lines == serial_lines
    assert stats.as_dict() == serial_stats.as_dict()


def test_spawn_pool_absorbs_exemplars_and_counters(ert_index, read_codes,
                                                   params):
    telemetry.enable()
    seed_reads(ert_index, read_codes, params, spawn_config(batch_size=4))
    snap = telemetry.snapshot()
    # Every read was sampled in some worker and merged back in order.
    assert snap["exemplars"]["count"] == len(read_codes)
    assert snap["exemplars"]["slowest"], "slowlog lost at the boundary"
    assert snap["histograms"]["read.wall_ms"]["count"] == len(read_codes)
    # Engine counters crossed the boundary too (spot-check one every
    # run emits -- `seeding.nodes_visited` is counted only on modelled
    # runs, with a memory tracer attached).
    assert snap["counters"]["seeding.index_lookups"] > 0


def test_spawn_exemplar_merge_is_deterministic(ert_index, read_codes,
                                               params):
    """In-order merge makes the sampled set reproducible run-to-run even
    though workers finish in arbitrary order."""
    kept = []
    for _ in range(2):
        telemetry.reset()
        telemetry.enable()
        seed_reads(ert_index, read_codes, params,
                   spawn_config(batch_size=4))
        exemplars = telemetry.snapshot()["exemplars"]
        kept.append([r["read_id"] for r in exemplars["reservoir"]])
        telemetry.disable()
    assert kept[0] == kept[1]


def test_spawn_trace_has_worker_tracks(ert_index, read_codes, params):
    epoch = telemetry.start_recording()
    try:
        seed_reads(ert_index, read_codes, params, spawn_config())
    finally:
        telemetry.stop_recording()
    doc = trace_document(telemetry.recorder().tracks(), epoch)
    events = doc["traceEvents"]
    assert len({e["pid"] for e in events}) >= 2, \
        "no spawned-worker track was absorbed into the parent trace"
    names = {e["name"] for e in events}
    for expected in ("batch", "worker.init", "index.map",
                     "parallel.merge"):
        assert expected in names, f"missing {expected} events"


#: A clean 2-worker ``align_reads`` run over an index built in memory, in
#: a fresh interpreter (argv: start method, JSONL event log); under
#: ``spawn`` the main module must be import-safe, hence the guard.
_POOL_RUN = """
import sys

from repro import logging
from repro.core import ErtConfig, build_ert
from repro.parallel import ParallelConfig, align_reads
from repro.seeding import SeedingParams
from repro.sequence import GenomeSimulator, ReadSimulator

if __name__ == "__main__":
    logging.configure(sys.argv[2])
    ref = GenomeSimulator(seed=5).generate(3000)
    index = build_ert(ref, ErtConfig(k=5, max_seed_len=100))
    reads = [r.codes for r in
             ReadSimulator(ref, read_length=60, seed=6).simulate(16)]
    records, _ = align_reads(
        index, reads, SeedingParams(min_seed_len=12),
        ParallelConfig(workers=2, batch_size=4,
                       start_method=sys.argv[1]))
    assert len(records) == 16
    logging.shutdown()
"""


@pytest.mark.parametrize("method", ["spawn", "fork"])
def test_clean_pool_run_is_silent_and_leaves_no_files(tmp_path, method):
    """The workers map a temporary file of the index built in memory:
    whatever the start method, the run prints nothing on stderr (no
    tracker traceback), creates nothing in ``/dev/shm``, and leaves the
    temp dir as empty as it found it."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    script = tmp_path / "pool_run.py"
    script.write_text(_POOL_RUN)
    events = tmp_path / "events.jsonl"
    temp = tmp_path / "tmp"
    temp.mkdir()
    segments = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, str(script), method, str(events)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.path.join(repo, "src"),
             "TMPDIR": str(temp)})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert not os.listdir(temp)
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= segments
    records = [json.loads(line) for line in events.read_text().splitlines()]
    assert not [r for r in records if r["event"].startswith("shm.")]
    if method == "fork":
        # Forked workers inherit the event log: each mapped the file.
        maps = [r for r in records if r["event"] == "index.map"]
        assert len(maps) == 2
        assert all(r["path"].startswith(str(temp)) for r in maps)
