"""Timeline event recorder: ring semantics, pair repair, trace export,
and end-to-end trace validity through the parallel scheduler (serial and
workers=2, including a run with an injected worker crash)."""

import os

import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.parallel import ParallelConfig
from repro.parallel import scheduler as sched
from repro.telemetry.events import (
    TimelineRecorder,
    _repair_pairs,
    to_trace_events,
    trace_document,
)


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


class FakeClock:
    """Deterministic injectable ns clock."""

    def __init__(self, start=1_000):
        self.now = start

    def __call__(self):
        self.now += 10
        return self.now


# ----------------------------------------------------------------------
# Recorder core
# ----------------------------------------------------------------------


def test_recorder_off_by_default_and_noop():
    rec = TimelineRecorder(clock=FakeClock())
    rec.begin("a")
    rec.end("a")
    rec.instant("i")
    rec.counter("c", 1)
    assert len(rec) == 0 and not rec.recording


def test_start_records_and_returns_epoch():
    clock = FakeClock()
    rec = TimelineRecorder(clock=clock)
    epoch = rec.start()
    assert rec.recording and epoch == rec.epoch_ns
    rec.begin("stage")
    rec.end("stage")
    assert [e[0] for e in rec.events()] == ["B", "E"]
    rec.stop()
    rec.instant("late")
    assert len(rec) == 2, "events after stop() must not record"


def test_start_adopts_foreign_epoch():
    rec = TimelineRecorder(clock=FakeClock())
    assert rec.start(epoch_ns=42) == 42
    assert rec.epoch_ns == 42


def test_ring_overwrites_oldest_and_counts_dropped():
    rec = TimelineRecorder(capacity=4, clock=FakeClock())
    rec.start()
    for i in range(7):
        rec.instant(f"e{i}")
    assert len(rec) == 4
    assert rec.dropped == 3
    assert [e[2] for e in rec.events()] == ["e3", "e4", "e5", "e6"]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        TimelineRecorder(capacity=0)


def test_scope_emits_pair_and_is_noop_when_off():
    rec = TimelineRecorder(clock=FakeClock())
    with rec.scope("quiet"):
        pass
    assert len(rec) == 0
    rec.start()
    with rec.scope("loud", {"k": 1}):
        rec.instant("inner")
    phases = [(e[0], e[2]) for e in rec.events()]
    assert phases == [("B", "loud"), ("i", "inner"), ("E", "loud")]
    assert rec.events()[0][3] == {"k": 1}


def test_drain_track_clears_ring_but_keeps_recording():
    rec = TimelineRecorder(clock=FakeClock())
    rec.start()
    rec.instant("x")
    track = rec.drain_track()
    assert track["pid"] == os.getpid()
    assert [e[2] for e in track["events"]] == ["x"]
    assert len(rec) == 0 and rec.recording
    rec.instant("y")
    assert len(rec) == 1


def test_absorb_ignores_none_and_empty():
    rec = TimelineRecorder(clock=FakeClock())
    rec.absorb(None)
    rec.absorb({"pid": 1, "label": "w", "events": [], "dropped": 0})
    assert len(rec.tracks()) == 1  # own ring only
    rec.absorb({"pid": 1, "label": "w",
                "events": [("i", 5, "e", None)], "dropped": 0})
    assert len(rec.tracks()) == 2


# ----------------------------------------------------------------------
# Pair repair
# ----------------------------------------------------------------------


def test_repair_drops_orphan_end():
    # The B for "outer" was overwritten by ring wrap; its E is dropped.
    events = [("E", 10, "outer", None), ("B", 20, "inner", None),
              ("E", 30, "inner", None)]
    repaired = _repair_pairs(events)
    assert [(e[0], e[2]) for e in repaired] == [("B", "inner"),
                                               ("E", "inner")]


def test_repair_closes_open_begin():
    events = [("B", 10, "outer", None), ("B", 20, "inner", None),
              ("i", 30, "mark", None)]
    repaired = _repair_pairs(events)
    assert [(e[0], e[2]) for e in repaired] == [
        ("B", "outer"), ("B", "inner"), ("i", "mark"),
        ("E", "inner"), ("E", "outer")]
    # Synthetic closes land at the last seen timestamp.
    assert repaired[-1][1] == 30 and repaired[-2][1] == 30


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------


def _validate_trace_events(events):
    """Perfetto-validity: ts-sorted, per-pid matched and nested B/E."""
    stacks = {}
    last_ts = None
    for event in events:
        if event["ph"] == "M":
            continue
        assert last_ts is None or event["ts"] >= last_ts, "unsorted ts"
        last_ts = event["ts"]
        stack = stacks.setdefault(event["pid"], [])
        if event["ph"] == "B":
            stack.append(event["name"])
        elif event["ph"] == "E":
            assert stack and stack[-1] == event["name"], \
                f"unmatched E {event['name']} (stack {stack})"
            stack.pop()
    assert not any(stacks.values()), f"unclosed B events: {stacks}"


def test_to_trace_events_shape():
    clock = FakeClock()
    rec = TimelineRecorder(clock=clock)
    epoch = rec.start()
    with rec.scope("run"):
        rec.instant("hit", {"reads": 3})
        rec.counter("inflight", 2)
    events = to_trace_events(rec.tracks(), epoch)
    meta = [e for e in events if e["ph"] == "M"]
    assert len(meta) == 1 and meta[0]["name"] == "process_name"
    assert meta[0]["args"]["name"] == "main"
    body = [e for e in events if e["ph"] != "M"]
    assert all(e["pid"] == os.getpid() and e["tid"] == 0 for e in body)
    assert all(e["ts"] >= 0 for e in body)
    instant = next(e for e in body if e["ph"] == "i")
    assert instant["s"] == "t" and instant["args"] == {"reads": 3}
    counter = next(e for e in body if e["ph"] == "C")
    assert counter["args"] == {"value": 2}
    _validate_trace_events(events)


def test_trace_document_counts_dropped():
    rec = TimelineRecorder(capacity=2, clock=FakeClock())
    epoch = rec.start()
    for i in range(5):
        rec.instant(f"e{i}")
    doc = trace_document(rec.tracks(), epoch)
    assert doc["otherData"]["dropped_events"] == 3
    assert doc["displayTimeUnit"] == "ms"


def test_absorbed_worker_track_gets_own_pid_row():
    clock = FakeClock()
    rec = TimelineRecorder(clock=clock)
    epoch = rec.start()
    rec.instant("parent-side")
    rec.absorb({"pid": 99999, "label": "worker-99999",
                "events": [("B", clock(), "batch", None),
                           ("E", clock(), "batch", None)],
                "dropped": 0})
    events = to_trace_events(rec.tracks(), epoch)
    labels = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert labels == {"main", "worker-99999"}
    _validate_trace_events(events)


# ----------------------------------------------------------------------
# The module-level recorder and the span-tracer bridge
# ----------------------------------------------------------------------


def test_spans_emit_events_only_while_recording():
    telemetry.enable()
    with telemetry.span("quiet"):
        pass
    assert len(telemetry.recorder()) == 0
    telemetry.start_recording()
    with telemetry.span("loud"):
        pass
    names = [e[2] for e in telemetry.recorder().events()]
    assert names == ["loud", "loud"]
    telemetry.stop_recording()


def test_reset_leaves_recorder_untouched():
    telemetry.start_recording()
    telemetry.instant("survives")
    telemetry.reset()
    assert [e[2] for e in telemetry.recorder().events()] == ["survives"]


def test_merge_snapshot_absorbs_timeline_even_with_metrics_off():
    telemetry.start_recording()
    telemetry.merge_snapshot(
        {"timeline": {"pid": 4242, "label": "worker-4242",
                      "events": [("i", 1, "remote", None)],
                      "dropped": 0}})
    labels = {t["label"] for t in telemetry.recorder().tracks()}
    assert "worker-4242" in labels


# ----------------------------------------------------------------------
# End-to-end: scheduler runs produce loadable traces
# ----------------------------------------------------------------------


def _seed_with_trace(ert_index, reads, params, config, fault=None):
    options = {"params": params}
    if fault is not None:
        options["fault"] = fault
    epoch = telemetry.start_recording()
    try:
        lines, _ = sched._map_reads(ErtSeedingEngine(ert_index), "seed",
                                    options, reads, config,
                                    config.batch_size)
    finally:
        telemetry.stop_recording()
    doc = trace_document(telemetry.recorder().tracks(), epoch)
    telemetry.recorder().clear()
    return lines, doc


def test_serial_run_trace_is_valid(ert_index, read_codes, params):
    lines, doc = _seed_with_trace(ert_index, read_codes, params,
                                  ParallelConfig(workers=1, batch_size=8))
    events = doc["traceEvents"]
    _validate_trace_events(events)
    names = {e["name"] for e in events}
    assert "batch" in names
    assert len({e["pid"] for e in events}) == 1


def test_workers2_trace_has_worker_tracks(ert_index, read_codes, params):
    serial_lines, _ = _seed_with_trace(
        ert_index, read_codes, params,
        ParallelConfig(workers=1, batch_size=4))
    lines, doc = _seed_with_trace(
        ert_index, read_codes, params,
        ParallelConfig(workers=2, batch_size=4))
    assert lines == serial_lines
    events = doc["traceEvents"]
    _validate_trace_events(events)
    assert len({e["pid"] for e in events}) >= 2, \
        "no worker track made it into the trace"
    names = {e["name"] for e in events}
    for expected in ("batch", "worker.init", "index.map",
                     "parallel.submit", "parallel.merge",
                     "parallel.inflight"):
        assert expected in names, f"missing {expected} events"


def test_crash_recovery_trace_shows_respawn(tmp_path, ert_index,
                                            read_codes, params):
    token = str(tmp_path / "fault.token")
    lines, doc = _seed_with_trace(
        ert_index, read_codes, params,
        ParallelConfig(workers=2, batch_size=4, retries=2,
                       backoff_s=0.01),
        fault={"kind": "sigkill", "token": token})
    assert os.path.exists(token), "fault never fired -- test is vacuous"
    serial_lines, _ = _seed_with_trace(
        ert_index, read_codes, params,
        ParallelConfig(workers=1, batch_size=4))
    assert lines == serial_lines
    events = doc["traceEvents"]
    _validate_trace_events(events)
    names = {e["name"] for e in events}
    assert "parallel.fault" in names
    assert "parallel.respawn" in names
    fault_event = next(e for e in events if e["name"] == "parallel.fault")
    assert fault_event["args"]["kind"] == "WorkerCrashError"
    respawn_ts = next(e["ts"] for e in events
                      if e["name"] == "parallel.respawn")
    assert any(e["name"] == "parallel.merge" and e["ts"] > respawn_ts
               for e in events), \
        "no merge after the respawn -- recovery gap not visible"
