"""Per-read exemplar sampling: reservoir determinism, slowlog top-K,
cross-process merge, and the ``read.wall_ms`` histogram the capture
entry point feeds."""

import pytest

from repro import telemetry
from repro.telemetry import READ_WALL_MS_EDGES, ExemplarCollector
from repro.telemetry.exemplars import DEFAULT_RESERVOIR, DEFAULT_TOP_K


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


def _fill(collector, n, wall_scale=1.0):
    """Record n synthetic reads with deterministic wall times."""
    for i in range(n):
        started = collector.start()
        rec = collector.record(f"read_{i}", started,
                               {"seeds": i, "zero": 0})
        # Overwrite the measured wall time so ordering is deterministic
        # for assertions (the collector keys the slowlog on it).
        rec["wall_ms"] = (i % 97) * wall_scale
    return collector


# ----------------------------------------------------------------------
# Collector semantics
# ----------------------------------------------------------------------


def test_record_strips_zero_counters_and_counts_everything():
    c = ExemplarCollector()
    rec = c.record("r1", c.start(), {"a": 3, "b": 0})
    assert rec["counters"] == {"a": 3}
    assert rec["read_id"] == "r1" and rec["task"] == "seed"
    assert rec["wall_ms"] >= 0.0
    assert c.count == 1


def test_reservoir_is_bounded_and_deterministic():
    a = ExemplarCollector()
    b = ExemplarCollector()
    for i in range(500):
        a.record(f"read_{i}", a.start())
        b.record(f"read_{i}", b.start())
    assert len(a.snapshot()["reservoir"]) == DEFAULT_RESERVOIR
    # Same seeded RNG, same offer sequence -> same kept read ids.
    assert [r["read_id"] for r in a.snapshot()["reservoir"]] == \
           [r["read_id"] for r in b.snapshot()["reservoir"]]


def test_reset_reseeds_the_reservoir_rng():
    c = ExemplarCollector()
    for i in range(300):
        c.record(f"read_{i}", c.start())
    first = [r["read_id"] for r in c.snapshot()["reservoir"]]
    c.reset()
    assert c.is_empty
    for i in range(300):
        c.record(f"read_{i}", c.start())
    assert [r["read_id"] for r in c.snapshot()["reservoir"]] == first


def test_slowlog_keeps_the_exact_top_k():
    # Synthetic wall times are injected through merge() -- record() would
    # measure real (near-zero) durations and make ordering flaky.
    c2 = ExemplarCollector()
    c2.merge({"count": 200,
              "slowest": [{"read_id": f"read_{i}",
                           "task": "seed",
                           "wall_ms": float((i * 37) % 199),
                           "counters": {}} for i in range(200)],
              "reservoir": []})
    slow = c2.snapshot()["slowest"]
    assert len(slow) == DEFAULT_TOP_K
    walls = [r["wall_ms"] for r in slow]
    assert walls == sorted(walls, reverse=True)
    expect = sorted((float((i * 37) % 199) for i in range(200)),
                    reverse=True)[:DEFAULT_TOP_K]
    assert walls == expect


def test_merge_accumulates_counts_and_bounds_reservoir():
    a = _fill(ExemplarCollector(), 100)
    b = _fill(ExemplarCollector(), 100)
    snap_b = b.snapshot()
    a.merge(snap_b)
    merged = a.snapshot()
    assert a.count == 200
    assert merged["count"] == 200
    assert len(merged["reservoir"]) <= DEFAULT_RESERVOIR
    assert len(merged["slowest"]) <= DEFAULT_TOP_K


def test_merge_order_determinism():
    """Merging the same snapshots in the same order gives identical
    state -- the property the in-order batch fold relies on."""
    parts = []
    for part in range(3):
        c = ExemplarCollector()
        for i in range(50):
            c.record(f"p{part}_read_{i}", c.start())
        parts.append(c.snapshot())
    x = ExemplarCollector()
    y = ExemplarCollector()
    for snap in parts:
        x.merge(snap)
        y.merge(snap)
    assert x.snapshot() == y.snapshot()


# ----------------------------------------------------------------------
# Module-level wiring: read_probe / record_reads
# ----------------------------------------------------------------------


def test_read_probe_is_none_while_disabled():
    assert telemetry.read_probe() is None
    telemetry.record_reads(None, ["r"], [1.0], lambda i: {})
    assert "exemplars" not in telemetry.snapshot()


def test_record_read_feeds_histogram_and_exemplar():
    telemetry.enable()
    token = telemetry.read_probe()
    assert token is not None
    telemetry.record_reads(token, ["read_7"], [0.75],
                           lambda i: {"seeds": 4, "zero": 0})
    snap = telemetry.snapshot()
    assert snap["exemplars"]["count"] == 1
    assert snap["exemplars"]["slowest"] == [
        {"read_id": "read_7", "task": "seed", "wall_ms": 0.75,
         "counters": {"seeds": 4}}]
    hist = snap["histograms"]["read.wall_ms"]
    assert hist["count"] == 1 and hist["total"] == 0.75
    assert tuple(hist["edges"]) == READ_WALL_MS_EDGES


def test_snapshot_merge_round_trip_through_merge_snapshot():
    telemetry.enable()
    token = telemetry.read_probe()
    telemetry.record_reads(token, ["worker_read"], [2.0],
                           lambda i: {"seeds": 2})
    shipped = telemetry.snapshot()
    telemetry.reset()
    telemetry.enable()
    telemetry.merge_snapshot(shipped)
    merged = telemetry.snapshot()
    assert merged["exemplars"]["count"] == 1
    assert merged["exemplars"]["slowest"][0]["read_id"] == "worker_read"
    assert merged["histograms"]["read.wall_ms"]["count"] == 1


def test_record_reads_bulk_matches_per_read_capture():
    """The scheduler's bulk offer path (`record_reads`) must leave the
    collector and the wall-time histogram in exactly the state 500
    individual `ExemplarCollector.record` + `observe` calls would: same
    reservoir membership (the RNG advances once per offer either way),
    same slowlog, same buckets."""
    import random

    ids = [f"r{i}" for i in range(500)]
    rng = random.Random(3)
    walls = [rng.random() * 30 for _ in ids]
    rows = [{"kernels.walk_steps": i % 7, "seeds": i % 3}
            for i in range(500)]

    telemetry.enable()
    probe = telemetry.read_probe()
    for i, read_id in enumerate(ids):
        telemetry.exemplars().record(read_id, probe, rows[i], task="seed",
                                     wall_ms=walls[i], kernels="vector")
        telemetry.observe("read.wall_ms", walls[i], READ_WALL_MS_EDGES)
    per_read = telemetry.snapshot()
    telemetry.reset()
    telemetry.enable()
    probe = telemetry.read_probe()
    telemetry.record_reads(probe, ids, walls,
                           lambda i: dict(rows[i]),
                           task="seed", kernels="vector")
    bulk = telemetry.snapshot()
    assert bulk["exemplars"]["reservoir"] == per_read["exemplars"]["reservoir"]
    assert bulk["exemplars"]["slowest"] == per_read["exemplars"]["slowest"]
    assert bulk["exemplars"]["count"] == per_read["exemplars"]["count"]
    assert bulk["histograms"] == per_read["histograms"]
