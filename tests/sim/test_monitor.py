"""Unit tests for tracing and utilisation measurement."""

from repro.sim import Environment, Trace, utilization
from repro.sim.monitor import Span


def test_trace_records_span_boundaries():
    env = Environment()
    trace = Trace(env)

    handle = trace.begin("compute", "fp0", layer=0)
    env.defer(trace.end, handle, 2.0)
    env.run()
    (span,) = trace.spans
    assert (span.category, span.name, span.start, span.end) == ("compute", "fp0", 0.0, 2.0)
    assert span.duration == 2.0
    assert dict(span.meta) == {"layer": 0}


def test_disabled_trace_records_nothing():
    env = Environment()
    trace = Trace(env, enabled=False)
    handle = trace.begin("compute", "fp0")
    trace.end(handle)
    trace.point("x", "y")
    trace.span("a", "b", 0.0, 1.0)
    assert trace.spans == []
    assert trace.points == []


def test_trace_point_records_current_time():
    env = Environment()
    trace = Trace(env)

    env.defer(lambda _arg: trace.point("marker", "iteration-end"), None, 1.5)
    env.run()
    assert trace.points == [(1.5, "marker", "iteration-end")]


def test_by_category_filters():
    env = Environment()
    trace = Trace(env)
    trace.span("compute", "a", 0.0, 1.0)
    trace.span("network", "b", 0.0, 1.0)
    assert [span.name for span in trace.by_category("network")] == ["b"]


def test_utilization_merges_overlaps():
    spans = [Span("net", "a", 0.0, 2.0), Span("net", "b", 1.0, 3.0)]
    assert utilization(spans, 0.0, 4.0) == 0.75


def test_utilization_clips_to_window():
    spans = [Span("net", "a", -5.0, 5.0)]
    assert utilization(spans, 0.0, 10.0) == 0.5


def test_utilization_empty_window():
    assert utilization([], 5.0, 5.0) == 0.0


def test_utilization_no_spans():
    assert utilization([], 0.0, 10.0) == 0.0
