"""End-to-end telemetry: trace propagation, unified metrics, exporters.

The observability layer the elasticity loop (§3.3) implies but the paper
never shows: per-hop spans across client → ObjectMQ proxy → broker queue
→ skeleton → SyncService → metadata/storage, a process-wide metrics
registry absorbing every scattered meter, and exporters (JSONL span
dumps, Chrome ``trace_event`` for about:tracing/Perfetto, Prometheus-style
text snapshots).

Everything is **off by default** and zero-cost when disabled: each
instrumentation site is guarded by a single ``TRACER.enabled`` attribute
check, and no trace bytes touch the wire unless tracing is on.

The control plane has its own observability on top
(:mod:`repro.telemetry.control`, :mod:`repro.telemetry.slo`,
:mod:`repro.telemetry.http`): an append-only :class:`DecisionJournal`
recording every Supervisor scaling decision with its policy reason, a
declarative :class:`SloEngine` alerting on registry gauges, and an
:class:`OpsServer` serving all of it over plain HTTP (routes:
:data:`repro.telemetry.http.ROUTES`).  Component health is part of the
one registry: a source whose read reports ``up`` is a component of
``/health``, and a read that raises reports it down.

:mod:`repro.telemetry.profiling` answers *where the wall-clock goes*
from the spans alone: per-segment self time, and tail-based
:class:`ExemplarReservoir` trace sampling that keeps full span trees
only for p99-slow (or errored) requests and names their dominant
critical-path segment.  Served at ``/profile`` and by the
``stacksync-repro telemetry`` CLI.

Typical use::

    from repro import telemetry

    telemetry.enable()
    ...  # run a workload
    spans = telemetry.get_tracer().spans()
    telemetry.write_chrome_trace(spans, "sync.trace.json")
    print(telemetry.get_registry().render_prometheus())
    telemetry.disable()
"""

from repro.telemetry.control import (
    KIND_ALERT_FIRED,
    KIND_ALERT_RESOLVED,
    KIND_DECISION,
    KIND_SHUTDOWN,
    KIND_SPAWN,
    REASON_CRASH_REPAIR,
    REASON_SCALE_DOWN,
    REASON_SCALE_UP,
    DecisionJournal,
    JournalEvent,
    load_journal_lines,
)
from repro.telemetry.export import (
    load_jsonl,
    render_flame_table,
    spans_to_chrome_trace,
    spans_to_jsonl,
    top_spans_by_layer,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.telemetry.http import OpsServer
from repro.telemetry.profiling import (
    Exemplar,
    ExemplarReservoir,
    disable_exemplars,
    dominant_segment,
    enable_exemplars,
    segment_breakdown,
)
from repro.telemetry.slo import (
    DEFAULT_RULES_TEXT,
    SloEngine,
    SloRule,
    default_rules,
)
from repro.telemetry.stats import percentile, safe_percentile
from repro.telemetry.trace import (
    DEQUEUED_AT_KEY,
    ENQUEUED_AT_KEY,
    TRACE_KEY,
    TRACER,
    Span,
    TraceContext,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
)

__all__ = [
    "DEFAULT_RULES_TEXT",
    "DEQUEUED_AT_KEY",
    "ENQUEUED_AT_KEY",
    "KIND_ALERT_FIRED",
    "KIND_ALERT_RESOLVED",
    "KIND_DECISION",
    "KIND_SHUTDOWN",
    "KIND_SPAWN",
    "REASON_CRASH_REPAIR",
    "REASON_SCALE_DOWN",
    "REASON_SCALE_UP",
    "REGISTRY",
    "TRACE_KEY",
    "TRACER",
    "Counter",
    "DecisionJournal",
    "Exemplar",
    "ExemplarReservoir",
    "Gauge",
    "Histogram",
    "JournalEvent",
    "MetricsRegistry",
    "OpsServer",
    "SloEngine",
    "SloRule",
    "Span",
    "TraceContext",
    "Tracer",
    "default_rules",
    "disable",
    "disable_exemplars",
    "dominant_segment",
    "enable",
    "enable_exemplars",
    "enabled",
    "segment_breakdown",
    "get_registry",
    "get_tracer",
    "load_journal_lines",
    "load_jsonl",
    "percentile",
    "render_flame_table",
    "safe_percentile",
    "spans_to_chrome_trace",
    "spans_to_jsonl",
    "top_spans_by_layer",
    "write_chrome_trace",
    "write_jsonl",
]
