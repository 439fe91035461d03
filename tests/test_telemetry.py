"""Telemetry layer: registry semantics, span math, exporters, no-op mode."""

import json

import pytest

from repro import telemetry
from repro.core import ErtSeedingEngine
from repro.seeding import seed_read
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    Tracer,
    load_snapshot,
    render_profile,
    sanitize,
    write_json,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with the global state disabled/empty."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    assert reg.counter("a").value == 5
    with pytest.raises(ValueError):
        reg.counter("a").inc(-1)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge("g").set(3)
    reg.gauge("g").set(7.5)
    assert reg.gauge("g").value == 7.5


def test_histogram_bucket_edges():
    h = Histogram(edges=(10, 20, 50))
    # A value exactly on an edge lands in that edge's bucket (v <= edge);
    # values above the last edge land in the overflow bucket.
    for value in (1, 10, 11, 20, 21, 50, 51, 1000):
        h.observe(value)
    assert h.counts == [2, 2, 2, 2]
    assert h.count == 8
    assert h.min == 1 and h.max == 1000
    assert h.mean == pytest.approx(sum((1, 10, 11, 20, 21, 50, 51, 1000))
                                   / 8)


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        Histogram(edges=())
    with pytest.raises(ValueError):
        Histogram(edges=(5, 5))
    with pytest.raises(ValueError):
        Histogram(edges=(5, 3))


def test_histogram_edges_fixed_at_first_use():
    reg = MetricsRegistry()
    h = reg.histogram("h", edges=(1, 2))
    assert reg.histogram("h", edges=(9, 99)) is h
    assert h.edges == (1, 2)


def test_registry_snapshot_and_reset():
    reg = MetricsRegistry()
    reg.counter("c").inc(2)
    reg.gauge("g").set(1.5)
    reg.histogram("h", edges=(1,)).observe(3)
    snap = reg.snapshot()
    assert snap["counters"] == {"c": 2}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"]["counts"] == [0, 1]
    json.dumps(snap)  # must be JSON-serializable as-is
    reg.reset()
    assert reg.is_empty


def test_sanitize():
    assert sanitize("BWA-MEM2 (FMD)") == "bwa-mem2-fmd"
    assert sanitize("tree_traversal") == "tree-traversal"
    assert sanitize("  ") == ""


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_nesting_and_exclusive_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
        clock.now += 0.5
    outer = tracer.stats["outer"]
    inner = tracer.stats["outer/inner"]
    assert outer.count == 1 and inner.count == 1
    assert outer.total_s == pytest.approx(3.5)
    assert inner.total_s == pytest.approx(2.0)
    # Exclusive time: parent's total minus time inside children.
    assert outer.self_s == pytest.approx(1.5)
    assert inner.self_s == pytest.approx(2.0)
    # Children never exceed the parent's inclusive wall-clock.
    assert inner.total_s <= outer.total_s


def test_span_aggregation_and_min_max():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for elapsed in (1.0, 3.0):
        with tracer.span("s"):
            clock.now += elapsed
    stat = tracer.stats["s"]
    assert stat.count == 2
    assert stat.total_s == pytest.approx(4.0)
    assert stat.min_s == pytest.approx(1.0)
    assert stat.max_s == pytest.approx(3.0)


def test_sibling_spans_share_a_path():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root"):
        for _ in range(3):
            with tracer.span("child"):
                clock.now += 1.0
    assert tracer.stats["root/child"].count == 3
    assert tracer.stats["root"].self_s == pytest.approx(0.0)


def test_tracer_reset_refuses_inside_open_span():
    tracer = Tracer(clock=FakeClock())
    span = tracer.span("open")
    span.__enter__()
    with pytest.raises(RuntimeError):
        tracer.reset()
    span.__exit__(None, None, None)
    tracer.reset()
    assert tracer.is_empty


# ----------------------------------------------------------------------
# Global facade: enable/disable semantics
# ----------------------------------------------------------------------


def test_disabled_helpers_record_nothing():
    assert not telemetry.enabled()
    telemetry.count("c", 5)
    telemetry.set_gauge("g", 1)
    telemetry.observe("h", 2)
    telemetry.add_counters({"x": 3})
    with telemetry.span("s"):
        pass
    assert telemetry.registry().is_empty
    assert telemetry.tracer().is_empty


def test_disabled_span_is_shared_noop():
    assert telemetry.span("a") is telemetry.span("b")


def test_enabled_helpers_record():
    telemetry.enable()
    telemetry.count("c", 2)
    telemetry.add_counters({"c": 1, "zero": 0})
    telemetry.set_gauge("g", 4)
    telemetry.observe("h", 7)
    with telemetry.span("s"):
        pass
    snap = telemetry.snapshot()
    assert snap["counters"] == {"c": 3}  # zero deltas are skipped
    assert snap["gauges"] == {"g": 4}
    hist = snap["histograms"]["h"]
    assert (hist["count"], hist["total"], sum(hist["counts"])) == (1, 7, 1)
    assert snap["spans"]["s"]["count"] == 1


def test_seeding_disabled_is_noop_and_output_invariant(ert_index,
                                                       read_codes, params):
    engine = ErtSeedingEngine(ert_index)
    plain = [seed_read(engine, read, params).all_seeds
             for read in read_codes[:6]]
    assert telemetry.registry().is_empty
    assert telemetry.tracer().is_empty

    telemetry.enable()
    engine2 = ErtSeedingEngine(ert_index)
    traced = [seed_read(engine2, read, params).all_seeds
              for read in read_codes[:6]]
    assert traced == plain  # telemetry never changes results
    snap = telemetry.snapshot()
    assert snap["counters"]["seeding.reads"] == 6
    assert snap["counters"]["seeds.emitted"] == sum(len(s) for s in plain)
    assert snap["spans"]["seed"]["count"] == 6
    assert snap["spans"]["seed/kernels.batch"]["count"] == 6
    # Engine-stat deltas surface under seeding.*
    assert snap["counters"]["seeding.forward_searches"] > 0
    assert snap["counters"]["seeding.index_lookups"] > 0


def test_truncation_counter_surfaces(ert_index, read_codes):
    from repro.seeding import SeedingParams

    telemetry.enable()
    engine = ErtSeedingEngine(ert_index)
    tight = SeedingParams(min_seed_len=12, max_hits_per_seed=1)
    for read in read_codes[:6]:
        seed_read(engine, read, tight)
    assert engine.stats.truncated_hit_lists > 0
    snap = telemetry.snapshot()
    assert snap["counters"]["seeds.truncated"] == \
        engine.stats.truncated_hit_lists


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_snapshot():
    telemetry.enable()
    telemetry.count("c", 3)
    telemetry.set_gauge("g", 2.5)
    telemetry.observe("h", 4)
    with telemetry.span("stage"):
        with telemetry.span("sub"):
            pass
    return telemetry.snapshot()


def test_json_round_trip(tmp_path):
    snap = _sample_snapshot()
    path = tmp_path / "metrics.json"
    write_json(path, snap)
    assert load_snapshot(path) == snap


def test_load_snapshot_fills_missing_sections(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text('{"counters": {"c": 1}}')
    snap = load_snapshot(path)
    assert snap["spans"] == {} and snap["histograms"] == {}
    with pytest.raises(ValueError):
        other = tmp_path / "bad.json"
        other.write_text("[1, 2]")
        load_snapshot(other)


def test_render_profile_lists_stages_and_counters():
    snap = _sample_snapshot()
    text = render_profile(snap, title="demo")
    assert "demo" in text
    assert "stage" in text and "sub" in text
    assert "% root" in text
    assert "c" in snap["counters"]
    empty = render_profile({"counters": {}, "gauges": {},
                            "histograms": {}, "spans": {}})
    assert "no spans recorded" in empty


# ----------------------------------------------------------------------
# Satellite: the revcomp cache must not serve stale arrays
# ----------------------------------------------------------------------


def test_revcomp_cache_pins_reads(ert_index, read_codes):
    from repro.sequence.alphabet import COMPLEMENT

    engine = ErtSeedingEngine(ert_index)
    engine.begin_read()
    first = read_codes[0].copy()
    rc1 = engine._revcomp(first)
    assert (rc1 == COMPLEMENT[first][::-1]).all()
    # The engine holds the array itself, so its id cannot be recycled by
    # the allocator while the cache entry lives.
    assert any(entry is first for entry in engine._pinned.values())
    # Interleaving a second read never cross-contaminates.
    second = read_codes[1].copy()
    rc2 = engine._revcomp(second)
    assert (rc2 == COMPLEMENT[second][::-1]).all()
    assert engine._revcomp(first) is rc1
    engine.begin_read()
    assert not engine._pinned and not engine._rev
