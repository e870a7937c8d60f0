"""Cross-layer trace propagation: one commit, one causally-linked span tree.

A :class:`TraceContext` (``trace_id`` / ``span_id``) rides inside ObjectMQ
envelopes (key ``"trace"``), so a single ``commitRequest`` yields spans
covering proxy serialization, broker queue wait, skeleton dispatch,
SyncService handling, the metadata transaction and per-chunk storage I/O
— across every thread the request touches.

The module-level :data:`TRACER` is a singleton that starts **disabled**;
every instrumentation site is guarded by one ``TRACER.enabled`` attribute
check (directly, or inside :meth:`Tracer.span`, which returns a shared
no-op context manager), so the disabled path allocates nothing and the
Fig 7 byte counters are unchanged.  Enable with :func:`enable`, read the
collected spans with :meth:`Tracer.spans`, export them with
:mod:`repro.telemetry.export`.

Span timestamps are ``time.time()`` wall-clock seconds: every layer runs
in one process here, so wall time is a consistent global clock and maps
directly onto Chrome ``trace_event`` microseconds.  Durations, however,
are measured with ``time.perf_counter()`` — a live span's ``end`` is
``start`` plus the monotonic elapsed time — so a wall-clock step (NTP
slew, manual adjustment) mid-span can never produce a negative or
inflated duration.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Envelope / message-header key carrying the wire-encoded TraceContext.
TRACE_KEY = "trace"
#: Message-header keys stamped by the MOM queue (broker clock).
ENQUEUED_AT_KEY = "t_enq"
DEQUEUED_AT_KEY = "t_deq"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one span: what children point back to."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data: Optional[Dict[str, str]]) -> Optional["TraceContext"]:
        if not data:
            return None
        trace_id = data.get("trace_id")
        span_id = data.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass
class Span:
    """One timed operation in one layer, linked into a trace tree."""

    name: str
    layer: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: float = 0.0
    thread: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "layer": self.layer,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """Shared do-nothing context manager returned on every disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager that records a live span and manages the TLS stack."""

    __slots__ = ("_tracer", "span", "_pushed", "_perf0")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._pushed = False
        self._perf0 = time.perf_counter()

    def set_attr(self, key: str, value: Any) -> None:
        self.span.attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self.span)
        self._pushed = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        # Monotonic duration anchored to the wall-clock start: clock steps
        # mid-span cannot yield negative (or wildly wrong) durations.
        self.span.end = self.span.start + (time.perf_counter() - self._perf0)
        if self._pushed:
            self._tracer._pop(self.span)
        self._tracer._record(self.span)
        return False


class Tracer:
    """Collects spans into a bounded in-memory buffer (thread-safe).

    ``enabled`` is the single hot-path guard: when False, :meth:`span`
    returns a shared no-op context manager, :meth:`inject` returns None
    (so no trace bytes ever reach the wire) and nothing is allocated.
    """

    def __init__(self, max_spans: int = 100_000, enabled: bool = False):
        self.enabled = enabled
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self.dropped = 0
        self._tls = threading.local()
        # Optional tail-based sampler (repro.telemetry.profiling attaches
        # an ExemplarReservoir here); offered every completed root span.
        self.exemplars: Optional[Any] = None

    # -- span creation -------------------------------------------------------

    def span(
        self,
        name: str,
        layer: str,
        parent: Optional[TraceContext] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        """Start a span; use as a context manager.

        Without an explicit *parent* the span nests under the thread's
        current span (or starts a new trace).  With one — e.g. a context
        extracted from an envelope or captured before handing work to a
        pool thread — it joins that trace instead.
        """
        if not self.enabled:
            return _NOOP_SPAN
        if parent is None:
            parent = self.current()
        span = Span(
            name=name,
            layer=layer,
            trace_id=parent.trace_id if parent else _new_id(),
            span_id=_new_id(),
            parent_id=parent.span_id if parent else None,
            start=time.time(),
            thread=threading.current_thread().name,
            attrs=dict(attrs) if attrs else {},
        )
        return _ActiveSpan(self, span)

    def record_span(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: Optional[TraceContext] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[Span]:
        """Record a span with explicit wall-clock bounds.

        Used for intervals observed after the fact, like broker queue wait
        derived from the enqueue/dequeue header stamps.
        """
        if not self.enabled:
            return None
        span = Span(
            name=name,
            layer=layer,
            trace_id=parent.trace_id if parent else _new_id(),
            span_id=_new_id(),
            parent_id=parent.span_id if parent else None,
            start=start,
            end=max(start, end),
            thread=threading.current_thread().name,
            attrs=dict(attrs) if attrs else {},
        )
        self._record(span)
        return span

    # -- context propagation -------------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """Context of the thread's innermost open span, or None."""
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return None
        return stack[-1].context

    def inject(self) -> Optional[Dict[str, str]]:
        """Wire dict for the current context; None when there is nothing
        to propagate (disabled, or no open span on this thread)."""
        if not self.enabled:
            return None
        current = self.current()
        return current.to_wire() if current else None

    # -- collected spans -----------------------------------------------------

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def drain(self) -> List[Span]:
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    # -- internals -----------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)
        # Offer completed roots to the exemplar reservoir outside the
        # buffer lock (the reservoir re-reads the buffer to capture the
        # tree).  A sampler bug must never break span recording.
        if span.parent_id is None and self.exemplars is not None:
            try:
                self.exemplars.offer(span, self)
            except Exception:
                pass


#: The process-wide tracer every instrumentation site consults.  A single
#: long-lived object (never rebound) so modules may cache the reference.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def enable(max_spans: Optional[int] = None, clear: bool = True) -> Tracer:
    """Turn span collection on (optionally resizing/clearing the buffer)."""
    if max_spans is not None:
        TRACER.max_spans = max_spans
    if clear:
        TRACER.clear()
    TRACER.enabled = True
    return TRACER


def disable() -> Tracer:
    """Stop collecting spans; already-collected spans stay readable."""
    TRACER.enabled = False
    return TRACER


def enabled() -> bool:
    return TRACER.enabled
