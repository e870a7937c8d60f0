"""Span-derived profiling: segment self-time and tail exemplars."""

from __future__ import annotations

import time

import pytest

from repro.telemetry.profiling import (
    ExemplarReservoir,
    disable_exemplars,
    dominant_segment,
    enable_exemplars,
    segment_breakdown,
)
from repro.telemetry.trace import TRACER, Span, enable


# -- exemplars ----------------------------------------------------------------


def _span(name, layer, start, end, trace_id="t1", span_id=None, parent=None):
    return Span(
        name=name,
        layer=layer,
        trace_id=trace_id,
        span_id=span_id or name,
        parent_id=parent,
        start=start,
        end=end,
    )


class TestSegmentBreakdown:
    def test_self_time_excludes_children(self):
        spans = [
            _span("root", "sync", 0.0, 1.0, span_id="r"),
            _span("meta", "metadata", 0.1, 0.4, parent="r"),
            _span("store", "storage", 0.4, 0.9, parent="r"),
        ]
        breakdown = segment_breakdown(spans)
        assert breakdown["metadata"] == pytest.approx(0.3)
        assert breakdown["storage"] == pytest.approx(0.5)
        assert breakdown["sync"] == pytest.approx(0.2)
        segment, seconds, fraction = dominant_segment(spans)
        assert segment == "storage"
        assert seconds == pytest.approx(0.5)
        assert fraction == pytest.approx(0.5)

    def test_queue_and_lock_layers_get_named_segments(self):
        spans = [
            _span("root", "sync", 0.0, 1.0, span_id="r"),
            _span("qw", "queue", 0.0, 0.6, parent="r"),
        ]
        breakdown = segment_breakdown(spans)
        assert breakdown["queue-wait"] == pytest.approx(0.6)
        assert dominant_segment(spans)[0] == "queue-wait"

    def test_empty_input(self):
        assert segment_breakdown([]) == {}
        assert dominant_segment([]) == ("<empty>", 0.0, 0.0)


class TestExemplarReservoir:
    def test_captures_only_the_slow_tail(self):
        tracer = enable()
        reservoir = enable_exemplars(min_samples=10, capacity=4)
        try:
            for i in range(100):
                with tracer.span("op", layer="sync"):
                    if i % 25 == 24:
                        time.sleep(0.01)
        finally:
            disable_exemplars()
        assert reservoir.roots_seen == 100
        assert 1 <= len(reservoir.exemplars()) <= 4
        exemplars = reservoir.exemplars()
        # The gate is a *rolling* p99, so an early fast-but-relatively-slow
        # root may be captured and survive; what matters is that the true
        # slow tail is represented.
        assert max(e.duration for e in exemplars) >= 0.005
        for exemplar in exemplars:
            assert exemplar.spans, "tree not captured"

    def test_errored_roots_always_captured(self):
        tracer = enable()
        reservoir = enable_exemplars(min_samples=1000, capacity=4)
        try:
            with pytest.raises(RuntimeError):
                with tracer.span("boom", layer="sync"):
                    raise RuntimeError("kaput")
        finally:
            disable_exemplars()
        exemplars = reservoir.exemplars()
        assert len(exemplars) == 1
        assert exemplars[0].errored

    def test_eviction_drops_fastest_non_errored(self):
        reservoir = ExemplarReservoir(capacity=2, min_samples=1)
        tracer = enable()
        tracer.exemplars = None  # offered manually below
        # Monotonically slower roots: each is the window maximum, so each
        # clears the rolling-p99 gate and lands in the reservoir.
        durations = [0.1, 0.2, 0.3]
        for index, duration in enumerate(durations):
            root = _span(
                f"op{index}", "sync", float(index), float(index) + duration,
                trace_id=f"trace{index}", span_id=f"s{index}",
            )
            tracer._record(root)
            reservoir.offer(root, tracer)
        assert reservoir.captured == 3
        assert reservoir.evicted == 1
        kept = sorted(e.duration for e in reservoir.exemplars())
        assert kept == pytest.approx([0.2, 0.3])

    def test_eviction_prefers_keeping_errored(self):
        reservoir = ExemplarReservoir(capacity=1, min_samples=1)
        tracer = enable()
        slow_error = _span("err", "sync", 0.0, 0.001, trace_id="te", span_id="e")
        slow_error.attrs["error"] = "RuntimeError: x"
        reservoir.offer(slow_error, tracer)
        fast = _span("ok", "sync", 1.0, 1.5, trace_id="tf", span_id="f")
        reservoir.offer(fast, tracer)
        names = [e.root_name for e in reservoir.exemplars()]
        # The errored exemplar survives even though it is the fastest.
        assert names == ["err"]

    def test_exemplar_dominant_segment_over_captured_tree(self):
        tracer = enable()
        reservoir = enable_exemplars(min_samples=1, capacity=2)
        try:
            with tracer.span("op", layer="sync"):
                with tracer.span("meta", layer="metadata"):
                    time.sleep(0.01)
        finally:
            disable_exemplars()
        exemplar = reservoir.exemplars()[0]
        assert exemplar.dominant_segment()[0] == "metadata"
        payload = exemplar.to_dict()
        assert payload["dominant_segment"] == "metadata"
        assert payload["spans"] == 2

    def test_offer_hook_is_exception_safe(self):
        tracer = enable()

        class Broken:
            def offer(self, span, tracer):
                raise RuntimeError("reservoir bug")

        tracer.exemplars = Broken()
        try:
            with tracer.span("op", layer="sync"):
                pass
        finally:
            tracer.exemplars = None
        # The span was still recorded despite the broken hook.
        assert [s.name for s in tracer.spans()] == ["op"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ExemplarReservoir(capacity=0)


# -- span-timing satellite -----------------------------------------------------


class TestMonotonicSpanDuration:
    def test_wall_clock_step_cannot_produce_negative_duration(self, monkeypatch):
        tracer = enable()
        real_time = time.time
        with tracer.span("op", layer="sync"):
            # A wall-clock step backwards mid-span (NTP correction).
            monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        monkeypatch.setattr(time, "time", real_time)
        span = tracer.spans()[0]
        assert span.end >= span.start
        assert 0.0 <= span.duration < 1.0
