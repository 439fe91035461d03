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
    # Engine counters crossed the boundary too (spot-check one that
    # both kernel backends emit -- the vector walk gathers flat nodes,
    # so `seeding.nodes_visited` is scalar-only).
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
    for expected in ("batch", "worker.init", "shm.attach",
                     "parallel.merge"):
        assert expected in names, f"missing {expected} events"
