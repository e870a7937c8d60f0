"""The hot-path profiling plane: where does a commit's wall-clock go?

Two instruments, both stdlib-only, both costing nothing until started:

* :class:`StackSampler` — a wall-clock sampling profiler over
  ``sys._current_frames()``: a daemon thread wakes at a configurable rate
  and records every other thread's Python stack.  Aggregated samples
  export as collapsed-stack ("folded") lines for flamegraph tooling and
  as Chrome ``trace_event`` sampling data (``stackFrames`` + ``samples``)
  for Perfetto.  Costs nothing unless started.

* :class:`ExemplarReservoir` — tail-based trace sampling.  Hooked onto
  the tracer (:func:`enable_exemplars`), it watches completed *root*
  spans, keeps a rolling window of their durations, and captures the
  full span tree only for roots slower than the window's p99 (or ones
  that errored).  Each :class:`Exemplar` can name the **dominant
  critical-path segment** — queue-wait vs metadata vs storage — via
  per-layer self-time over its tree.  The reservoir is bounded: when
  full, the fastest non-errored exemplar is evicted.

Surfaces: ``/profile`` on the ops endpoint (stacks plus exemplar
summaries) and ``stacksync-repro profile`` in the CLI.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.telemetry.stats import percentile
from repro.telemetry.trace import Span, Tracer, TRACER

# -- the sampling profiler ----------------------------------------------------


@dataclass(frozen=True)
class StackSample:
    """One observation of one thread: when, who, and the stack (root first)."""

    timestamp: float
    thread: str
    frames: Tuple[str, ...]


def _frame_label(frame) -> str:
    code = frame.f_code
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{code.co_name}"


class StackSampler:
    """Wall-clock sampling profiler over ``sys._current_frames()``.

    A daemon thread samples every other Python thread's stack at *hz*.
    Aggregation is per ``(thread name, stack)``; a bounded per-sample
    journal (for timestamped Chrome export) keeps the newest
    *max_samples* observations.  ``start``/``stop`` are idempotent; a
    sampler that was never started costs literally nothing.
    """

    def __init__(
        self,
        hz: float = 100.0,
        max_depth: int = 64,
        max_samples: int = 100_000,
    ):
        if hz <= 0:
            raise ValueError("sampling rate must be positive")
        self.hz = hz
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._journal: Deque[StackSample] = deque(maxlen=max_samples)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.sample_count = 0
        self.tick_count = 0
        self.started_at = 0.0
        self.active_seconds = 0.0

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        """Begin sampling; a no-op if already running."""
        if self.running:
            return self
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="stack-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        """Stop sampling; a no-op if not running.  Samples stay readable."""
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self.started_at:
            self.active_seconds += time.perf_counter() - self.started_at
            self.started_at = 0.0
        return self

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._journal.clear()
            self.sample_count = 0
            self.tick_count = 0
            self.active_seconds = 0.0

    # -- sampling -------------------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one sample of every thread; returns threads observed.

        Public so tests (and burst profiles) can sample deterministically
        without the timer thread.
        """
        now = time.time()
        me = threading.get_ident()
        sampler_thread = self._thread
        sampler_ident = sampler_thread.ident if sampler_thread else me
        names = {t.ident: t.name for t in threading.enumerate()}
        observed = 0
        for ident, frame in sys._current_frames().items():
            if ident == sampler_ident or ident == me:
                continue
            frames: List[str] = []
            while frame is not None and len(frames) < self.max_depth:
                frames.append(_frame_label(frame))
                frame = frame.f_back
            frames.reverse()  # root first, flamegraph order
            sample = StackSample(
                timestamp=now,
                thread=names.get(ident, f"thread-{ident}"),
                frames=tuple(frames),
            )
            key = (sample.thread, sample.frames)
            with self._lock:
                self._counts[key] = self._counts.get(key, 0) + 1
                self._journal.append(sample)
                self.sample_count += 1
            observed += 1
        with self._lock:
            self.tick_count += 1
        return observed

    # -- export ---------------------------------------------------------------

    def counts(self) -> Dict[Tuple[str, Tuple[str, ...]], int]:
        with self._lock:
            return dict(self._counts)

    def samples(self) -> List[StackSample]:
        with self._lock:
            return list(self._journal)

    def collapsed(self) -> str:
        """Collapsed-stack ("folded") lines: ``thread;frame;... count``.

        The format flamegraph.pl / speedscope / inferno consume directly.
        Hottest stacks first.
        """
        lines = [
            (";".join((thread,) + frames), count)
            for (thread, frames), count in self.counts().items()
        ]
        lines.sort(key=lambda pair: (-pair[1], pair[0]))
        return "\n".join(f"{stack} {count}" for stack, count in lines)

    def hottest(self, top_n: int = 10) -> List[Tuple[str, int]]:
        """The *top_n* hottest leaf frames with their sample counts."""
        leaves: Dict[str, int] = {}
        for (_thread, frames), count in self.counts().items():
            leaf = frames[-1] if frames else "<idle>"
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:top_n]

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` sampling data for Perfetto.

        Emits the documented sampling-profile shape: a ``stackFrames``
        tree (deduplicated ``{name, parent}`` nodes) plus timestamped
        ``samples`` referencing leaf frame ids, with one ``tid`` and
        ``thread_name`` metadata row per sampled thread.
        """
        samples = self.samples()
        threads = sorted({sample.thread for sample in samples})
        tid_of = {name: index + 1 for index, name in enumerate(threads)}
        frame_ids: Dict[Tuple[Optional[int], str], int] = {}
        stack_frames: Dict[str, Dict[str, Any]] = {}

        def _intern(parent: Optional[int], name: str) -> int:
            key = (parent, name)
            frame_id = frame_ids.get(key)
            if frame_id is None:
                frame_id = len(frame_ids) + 1
                frame_ids[key] = frame_id
                node: Dict[str, Any] = {"name": name, "category": "python"}
                if parent is not None:
                    node["parent"] = str(parent)
                stack_frames[str(frame_id)] = node
            return frame_id

        events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
            for name, tid in tid_of.items()
        ]
        out_samples = []
        for sample in samples:
            parent: Optional[int] = None
            for frame in sample.frames or ("<idle>",):
                parent = _intern(parent, frame)
            out_samples.append({
                "cpu": 0,
                "pid": 1,
                "tid": tid_of[sample.thread],
                "ts": sample.timestamp * 1e6,
                "name": "sample",
                "sf": parent,
                "weight": 1,
            })
        return {
            "traceEvents": events,
            "stackFrames": stack_frames,
            "samples": out_samples,
            "displayTimeUnit": "ms",
        }

    def write_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            text = self.collapsed()
            fh.write(text + ("\n" if text else ""))

    def write_chrome_trace(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


#: The process-wide sampler served by ``/profile``; never rebound.
PROFILER = StackSampler()


def get_profiler() -> StackSampler:
    return PROFILER


# -- tail-based exemplars ------------------------------------------------------

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

    def breakdown(self) -> Dict[str, float]:
        return segment_breakdown(self.spans)

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
            "breakdown": self.breakdown(),
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

    def __len__(self) -> int:
        with self._lock:
            return len(self._exemplars)

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
