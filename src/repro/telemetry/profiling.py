"""Where does a commit's wall-clock go?  Answers derived from spans.

:func:`segment_breakdown` turns any span set into per-segment *self
time* (queue-wait vs dispatch vs metadata vs storage), so nested layers
are not double-counted.

:class:`ExemplarReservoir` is tail-based trace sampling.  Hooked onto
the tracer (:func:`enable_exemplars`), it watches completed *root*
spans, keeps a rolling window of their durations, and captures the
full span tree only for roots slower than the window's p99 (or ones
that errored).  Each :class:`Exemplar` can name the **dominant
critical-path segment** via the same self-time breakdown over its
tree.  The reservoir is bounded: when full, the fastest non-errored
exemplar is evicted.  It costs nothing until attached.

Surfaces: ``/profile`` on the ops endpoint (exemplar summaries) and
``stacksync-repro telemetry`` in the CLI (segment table plus exemplars).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.telemetry.stats import percentile
from repro.telemetry.trace import Span, Tracer, TRACER

#: Span layer → human segment name used in critical-path verdicts.
SEGMENT_OF_LAYER = {
    "queue": "queue-wait",
    "metadata": "metadata",
    "storage": "storage",
    "sync": "sync",
    "skeleton": "dispatch",
    "proxy": "proxy",
    "client": "client",
    "bench": "client",
}


def segment_breakdown(spans: List[Span]) -> Dict[str, float]:
    """Per-segment *self time* over one span tree (or any span set).

    A span's self time is its duration minus the portions covered by its
    children, so nested layers are not double-counted; self times then
    aggregate by :data:`SEGMENT_OF_LAYER`.  Concurrent sibling spans can
    overlap (parallel chunk PUTs), which undercounts the parent — the
    conservative direction for "which segment dominates".
    """
    children: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    breakdown: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        for child in children.get(span.span_id, ()):
            overlap = min(child.end, span.end) - max(child.start, span.start)
            if overlap > 0:
                covered += overlap
        self_time = max(0.0, span.duration - covered)
        segment = SEGMENT_OF_LAYER.get(span.layer, span.layer)
        breakdown[segment] = breakdown.get(segment, 0.0) + self_time
    return breakdown


def dominant_segment(spans: List[Span]) -> Tuple[str, float, float]:
    """``(segment, seconds, fraction_of_total)`` of the largest self-time."""
    breakdown = segment_breakdown(spans)
    if not breakdown:
        return ("<empty>", 0.0, 0.0)
    total = sum(breakdown.values())
    segment, seconds = max(breakdown.items(), key=lambda kv: (kv[1], kv[0]))
    return (segment, seconds, seconds / total if total else 0.0)


@dataclass
class Exemplar:
    """One retained slow (or errored) trace: the full span tree."""

    trace_id: str
    root_name: str
    duration: float
    start: float
    errored: bool
    spans: List[Span] = field(default_factory=list)

    def dominant_segment(self) -> Tuple[str, float, float]:
        return dominant_segment(self.spans)

    def to_dict(self) -> Dict[str, Any]:
        segment, seconds, fraction = self.dominant_segment()
        return {
            "trace_id": self.trace_id,
            "root": self.root_name,
            "duration_s": self.duration,
            "start": self.start,
            "errored": self.errored,
            "spans": len(self.spans),
            "dominant_segment": segment,
            "dominant_seconds": seconds,
            "dominant_fraction": fraction,
            "breakdown": segment_breakdown(self.spans),
        }


class ExemplarReservoir:
    """Tail-based sampler: keep whole trees only for the slow tail.

    Offered every completed root span (by the tracer hook installed with
    :func:`enable_exemplars`), the reservoir tracks a rolling window of
    root durations and captures the full span tree when the root is at
    or above the window's *quantile* (default p99) — once *min_samples*
    roots have been seen — or when the root recorded an error.  Capacity
    is bounded: the fastest non-errored exemplar is evicted first.
    """

    def __init__(
        self,
        capacity: int = 16,
        window: int = 512,
        quantile: float = 0.99,
        min_samples: int = 32,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.quantile = quantile
        self.min_samples = min_samples
        self._lock = threading.Lock()
        self._durations: Deque[float] = deque(maxlen=window)
        self._exemplars: List[Exemplar] = []
        self.roots_seen = 0
        self.captured = 0
        self.evicted = 0

    # -- the tracer hook -------------------------------------------------------

    def offer(self, root: Span, tracer: Tracer) -> Optional[Exemplar]:
        """Consider one completed root span; capture its tree if tail-worthy."""
        duration = root.duration
        errored = "error" in root.attrs
        with self._lock:
            self.roots_seen += 1
            self._durations.append(duration)
            enough = len(self._durations) >= self.min_samples
            threshold = (
                percentile(list(self._durations), self.quantile)
                if enough
                else float("inf")
            )
        if not errored and duration < threshold:
            return None
        spans = [s for s in tracer.spans() if s.trace_id == root.trace_id]
        exemplar = Exemplar(
            trace_id=root.trace_id,
            root_name=root.name,
            duration=duration,
            start=root.start,
            errored=errored,
            spans=spans,
        )
        with self._lock:
            self._exemplars.append(exemplar)
            self.captured += 1
            if len(self._exemplars) > self.capacity:
                self._evict_locked()
        return exemplar

    def _evict_locked(self) -> None:
        """Drop the fastest non-errored exemplar (fastest overall if none)."""
        victims = [e for e in self._exemplars if not e.errored] or self._exemplars
        victim = min(victims, key=lambda e: e.duration)
        self._exemplars.remove(victim)
        self.evicted += 1

    # -- reading ---------------------------------------------------------------

    def exemplars(self) -> List[Exemplar]:
        """Retained exemplars, slowest first."""
        with self._lock:
            return sorted(
                self._exemplars, key=lambda e: e.duration, reverse=True
            )

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "roots_seen": float(self.roots_seen),
                "captured": float(self.captured),
                "evicted": float(self.evicted),
                "retained": float(len(self._exemplars)),
            }


def enable_exemplars(
    tracer: Optional[Tracer] = None, **reservoir_kwargs: Any
) -> ExemplarReservoir:
    """Attach a fresh reservoir to *tracer* (default: the singleton)."""
    tracer = tracer if tracer is not None else TRACER
    reservoir = ExemplarReservoir(**reservoir_kwargs)
    tracer.exemplars = reservoir
    return reservoir


def disable_exemplars(tracer: Optional[Tracer] = None) -> None:
    tracer = tracer if tracer is not None else TRACER
    tracer.exemplars = None
