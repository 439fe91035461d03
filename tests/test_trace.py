"""Unit tests for address spaces and memory tracing."""

import pytest

from repro.memsim import AddressSpace, MemoryTracer


def test_allocation_is_aligned_and_disjoint():
    space = AddressSpace(alignment=2048)
    a = space.allocate("a", 100)
    b = space.allocate("b", 5000)
    c = space.allocate("c", 1)
    for region in (a, b, c):
        assert region.base % 2048 == 0
    assert a.end <= b.base and b.end <= c.base


def test_duplicate_region_rejected():
    space = AddressSpace()
    space.allocate("x", 10)
    with pytest.raises(ValueError):
        space.allocate("x", 10)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        AddressSpace().allocate("x", -1)


def test_bad_alignment_rejected():
    with pytest.raises(ValueError):
        AddressSpace(alignment=100)


def test_tracer_counts_lines():
    tracer = MemoryTracer(line_size=64)
    tracer.access(0, 8, "p")        # 1 line
    tracer.access(60, 8, "p")       # straddles 2 lines
    tracer.access(128, 64, "q")     # exactly 1 line
    assert tracer.by_phase["p"].requests == 3
    assert tracer.by_phase["p"].bytes == 3 * 64
    assert tracer.by_phase["q"].requests == 1
    assert tracer.total_requests == 4
    assert tracer.total_bytes == 4 * 64


def test_tracer_rejects_zero_size():
    with pytest.raises(ValueError):
        MemoryTracer().access(0, 0, "p")


def test_tracer_rejects_bad_line_size():
    with pytest.raises(ValueError):
        MemoryTracer(line_size=48)


def test_tracer_keep_trace():
    tracer = MemoryTracer(keep_trace=True)
    tracer.access(100, 8, "p", region="r")
    assert len(tracer.trace) == 1
    event = tracer.trace[0]
    assert event.addr == 64 and event.size == 64
    assert event.phase == "p" and event.region == "r"


def test_tracer_sinks_receive_line_events():
    received = []

    class Sink:
        def on_access(self, event):
            received.append(event.addr)

    tracer = MemoryTracer()
    tracer.sinks.append(Sink())
    tracer.access(70, 128, "p")
    assert received == [64, 128, 192]
