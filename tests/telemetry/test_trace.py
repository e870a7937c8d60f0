"""Tracer behavior: disabled no-ops, nesting, propagation, bounds."""

from __future__ import annotations

import threading

from repro.telemetry.trace import (
    TRACER,
    Span,
    TraceContext,
    _NOOP_SPAN,
    disable,
    enable,
    enabled,
)


def test_disabled_span_is_shared_noop():
    assert not enabled()
    first = TRACER.span("x", layer="client")
    second = TRACER.span("y", layer="proxy")
    assert first is _NOOP_SPAN and second is _NOOP_SPAN
    with first as handle:
        assert handle is None
    assert TRACER.spans() == []


def test_disabled_inject_returns_none():
    assert TRACER.inject() is None
    enable()
    # Enabled but no open span: still nothing to propagate.
    assert TRACER.inject() is None
    with TRACER.span("root", layer="client"):
        wire = TRACER.inject()
        assert wire is not None
        assert set(wire) == {"trace_id", "span_id"}


def test_nesting_links_parent_and_trace():
    enable()
    with TRACER.span("outer", layer="client") as outer:
        with TRACER.span("inner", layer="proxy") as inner:
            assert inner.span.trace_id == outer.span.trace_id
            assert inner.span.parent_id == outer.span.span_id
    spans = TRACER.spans()
    assert [s.name for s in spans] == ["inner", "outer"]
    assert spans[1].parent_id is None


def test_explicit_parent_joins_remote_trace():
    enable()
    parent = TraceContext(trace_id="t" * 16, span_id="s" * 16)
    with TRACER.span("handled", layer="skeleton", parent=parent) as handle:
        assert handle.span.trace_id == parent.trace_id
        assert handle.span.parent_id == parent.span_id


def test_explicit_parent_crosses_threads():
    enable()
    results = []
    with TRACER.span("submit", layer="client"):
        captured = TRACER.current()

        def worker():
            with TRACER.span("work", layer="storage", parent=captured) as handle:
                results.append(handle.span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    [work] = results
    root = next(s for s in TRACER.spans() if s.name == "submit")
    assert work.trace_id == root.trace_id
    assert work.parent_id == root.span_id
    assert work.thread != root.thread


def test_record_span_uses_explicit_bounds():
    enable()
    parent = TraceContext(trace_id="abc", span_id="def")
    span = TRACER.record_span(
        "queue.wait", layer="queue", start=10.0, end=10.5, parent=parent
    )
    assert span.duration == 0.5
    assert span.trace_id == "abc" and span.parent_id == "def"
    # Clock skew never yields negative durations.
    clamped = TRACER.record_span("w", layer="queue", start=5.0, end=4.0)
    assert clamped.duration == 0.0


def test_record_span_noop_when_disabled():
    assert TRACER.record_span("w", layer="queue", start=0.0, end=1.0) is None
    assert TRACER.spans() == []


def test_span_error_attr_on_exception():
    enable()
    try:
        with TRACER.span("boom", layer="sync"):
            raise ValueError("bad")
    except ValueError:
        pass
    [span] = TRACER.spans()
    assert span.attrs["error"] == "ValueError: bad"


def test_buffer_is_bounded():
    enable(max_spans=3)
    for i in range(5):
        with TRACER.span(f"s{i}", layer="bench"):
            pass
    assert len(TRACER.spans()) == 3
    assert TRACER.dropped == 2


def test_wire_round_trip_and_missing():
    context = TraceContext(trace_id="11", span_id="22")
    assert TraceContext.from_wire(context.to_wire()) == context
    assert TraceContext.from_wire(None) is None
    assert TraceContext.from_wire({}) is None
    assert TraceContext.from_wire({"trace_id": "x"}) is None


def test_disable_keeps_collected_spans():
    enable()
    with TRACER.span("kept", layer="client"):
        pass
    disable()
    assert [s.name for s in TRACER.spans()] == ["kept"]
    assert TRACER.span("after", layer="client") is _NOOP_SPAN


def test_span_to_dict_round_trip():
    enable()
    with TRACER.span("s", layer="sync", attrs={"k": 1}):
        pass
    [span] = TRACER.spans()
    data = span.to_dict()
    data.pop("duration")
    assert Span(**data) == span
