"""Structured JSONL logging: off-by-default contract, record shape,
sink lifecycle."""

import io
import json

import pytest

from repro import logging as rlog


@pytest.fixture(autouse=True)
def clean_sink():
    rlog.shutdown()
    yield
    rlog.shutdown()


def _records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def test_unconfigured_logging_is_a_noop():
    assert not rlog.configured()
    rlog.get_logger("x").info("event", a=1)  # must not raise or write


def test_records_are_one_json_object_per_line():
    stream = io.StringIO()
    rlog.configure(stream=stream)
    log = rlog.get_logger("parallel.scheduler")
    log.info("pool.spawn", workers=2, task="seed")
    log.warn("batch.fault", batch=3)
    records = _records(stream)
    assert [r["event"] for r in records] == ["pool.spawn", "batch.fault"]
    first = records[0]
    assert first["subsystem"] == "parallel.scheduler"
    assert first["level"] == "info"
    assert first["workers"] == 2 and first["task"] == "seed"
    assert isinstance(first["ts"], float)


def test_unknown_level_rejected():
    stream = io.StringIO()
    rlog.configure(stream=stream)
    with pytest.raises(ValueError):
        rlog.get_logger("s").log("fatal", "boom")


def test_configure_requires_exactly_one_destination(tmp_path):
    with pytest.raises(ValueError):
        rlog.configure()
    with pytest.raises(ValueError):
        rlog.configure(path=str(tmp_path / "x.jsonl"), stream=io.StringIO())


def test_path_sink_appends_and_closes_on_shutdown(tmp_path):
    path = tmp_path / "events.jsonl"
    rlog.configure(path=str(path))
    rlog.get_logger("s").info("first")
    rlog.shutdown()
    rlog.configure(path=str(path))
    rlog.get_logger("s").info("second")
    rlog.shutdown()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["event"] for e in events] == ["first", "second"]


def test_shutdown_without_drops_writes_no_summary():
    stream = io.StringIO()
    rlog.configure(stream=stream)
    rlog.get_logger("s").info("only")
    rlog.shutdown()
    assert [r["event"] for r in _records(stream)] == ["only"]


def test_reconfigure_replaces_sink():
    first, second = io.StringIO(), io.StringIO()
    rlog.configure(stream=first)
    rlog.configure(stream=second)
    rlog.get_logger("s").info("routed")
    assert _records(first) == []
    assert [r["event"] for r in _records(second)] == ["routed"]


def test_non_serializable_fields_fall_back_to_str():
    stream = io.StringIO()
    rlog.configure(stream=stream)
    rlog.get_logger("s").info("obj", value={1, 2}.__class__)
    record = _records(stream)[0]
    assert "class" in record["value"]
