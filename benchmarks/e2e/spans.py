"""Span recording and the layer budget computed from it.

Spans are recorded by the benchmark's own wrappers (``tracing.py``) around
calls into each layer; nothing inside ``src/`` takes part.  A span has a
name (``<layer>.<what>``), start, end, the span that caused it and the
operation it belongs to.  Parents come from a thread-local stack; work that
hops threads is linked by the operation's request id (control path) or the
chunk fingerprint (transfer pool).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

RESIDUAL = "bench.residual"
QUEUE_WAIT = "mom.queue_wait"
#: The generator blocked on the remote device: not work, a wait.
CLIENT_WAIT = "bench.wait"
#: A delivery callback: covers every message of one dispatch batch.
DELIVERY = ("objectmq.skeleton", "client.apply")


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    detail: str
    op: Optional[str]
    n: int
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """A span being timed; appended to the recorder when it closes."""

    __slots__ = ("_rec", "id", "parent", "name", "detail", "op", "n", "start")

    def __init__(self, rec, name, detail, op, n, parent):
        self._rec = rec
        self.id = next(rec._ids)
        self.parent = parent
        self.name = name
        self.detail = detail
        self.op = op
        self.n = n

    def __enter__(self) -> "_Open":
        stack = self._rec._stack()
        if self.parent is None and stack:
            self.parent = stack[-1]
        stack.append(self.id)
        self.start = self._rec.clock()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self._rec.clock()
        self._rec._stack().pop()
        self._rec.spans.append(
            Span(
                self.id, self.parent, self.name, self.detail, self.op, self.n,
                threading.get_ident(), self.start, end,
            )
        )


class Recorder:
    """Thread-safe in-memory span sink (list appends under the GIL)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: request id / chunk fingerprint -> span that work on another
        #: thread should name as its parent.
        self.links: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name, detail="", op=None, n=0, parent=None) -> _Open:
        return _Open(self, name, detail, op, n, parent)

    def add(self, name, start, end, parent=None, detail="", op=None, n=0) -> None:
        """Record an interval measured elsewhere (e.g. a queue wait)."""
        self.spans.append(
            Span(next(self._ids), parent, name, detail, op, n,
                 threading.get_ident(), start, end)
        )

    def wrap(self, fn, name, detail="", op_of=None):
        """Return *fn* timed as one span per call.

        ``op_of(args, kwargs)`` may name the operation the call belongs to.
        """

        def traced(*args, **kwargs):
            op = op_of(args, kwargs) if op_of is not None else None
            with self.span(name, detail, op=op):
                return fn(*args, **kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": list(Span._fields), "spans": sorted(self.spans)}, handle
            )


# -- analysis -----------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration of *span* minus the part its children cover.

    Children may run on other threads and overlap each other (chunks in
    the transfer pool); the part they cover is the union of their
    intervals clipped to the span, never their sum.
    """
    clipped = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end > span.start and child.start < span.end
    ]
    return span.duration - union_length(clipped)


class Totals(NamedTuple):
    calls: int
    duration: float
    self_time: float
    n: int


def totals_by_name(spans: List[Span]) -> Dict[str, Totals]:
    """Calls, total time, self time and Σn per span name and per ``name:detail``.

    One pass (self time is the costly part); a span with a detail counts
    under both keys.
    """
    kids = children_of(spans)
    out: Dict[str, List[float]] = {}
    for span in spans:
        own = self_time(span, kids.get(span.id, ()))
        keys = (span.name, f"{span.name}:{span.detail}") if span.detail else (span.name,)
        for key in keys:
            row = out.setdefault(key, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += span.duration
            row[2] += own
            row[3] += span.n
    return {key: Totals(int(r[0]), r[1], r[2], int(r[3])) for key, r in out.items()}


def resolve_ops(spans: List[Span]) -> Dict[int, Optional[str]]:
    """Operation of every span: its own, else its parent's.

    A span that names an operation *and* sits under another one (the
    client's internal request id under the benchmark's per-op root) makes
    the two names aliases; everything tagged with the inner name then
    belongs to the outer operation.  Ids grow with start order, so one
    pass in id order sees every parent before its children.
    """
    op_of: Dict[int, Optional[str]] = {}
    alias: Dict[str, str] = {}
    for span in sorted(spans, key=lambda s: s.id):
        inherited = op_of.get(span.parent) if span.parent is not None else None
        own = span.op
        if own is not None and inherited is not None and own != inherited:
            alias.setdefault(own, inherited)
        if own is not None:
            op_of[span.id] = alias.get(own, own)
        else:
            op_of[span.id] = inherited
    return op_of


def op_budget(
    interval: Tuple[float, float],
    own: List[Span],
    deliveries: List[Tuple[Span, List[Span]]],
) -> Dict[str, float]:
    """Split one operation's latency among span names; values sum to it.

    At each instant of *interval* the time goes to, in order of precedence:

    1. the most recently started of the operation's *own* working spans
       that is running (the innermost one on whichever thread is serving
       the operation);
    2. a delivery callback holding the operation's message — to the MOM
       queue wait while the callback is busy with another message of the
       same batch, otherwise to the callback itself (skeleton self time);
    3. a recorded queue wait (publish return to delivery-callback entry);
    4. :data:`RESIDUAL` — nothing recorded explains it (thread wake-ups,
       code no wrapper reaches).  :data:`CLIENT_WAIT` spans land here too:
       the generator blocked on the remote device is not work.

    *deliveries* pairs each delivery-callback span that handled one of the
    operation's messages with the children it ran for *other* operations.
    """
    lo, hi = interval
    work = [s for s in own if s.name not in (QUEUE_WAIT, CLIENT_WAIT)]
    waits = [s for s in own if s.name == QUEUE_WAIT]
    cuts = {lo, hi}
    for span in own:
        cuts.update((span.start, span.end))
    for holder, others in deliveries:
        cuts.update((holder.start, holder.end))
        for other in others:
            cuts.update((other.start, other.end))
    edges = sorted(c for c in cuts if lo <= c <= hi)
    budget: Dict[str, float] = {}
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        label = None
        running = [s for s in work if s.start <= mid < s.end]
        if running:
            label = max(running, key=lambda s: (s.start, s.id)).name
        else:
            for holder, others in deliveries:
                if holder.start <= mid < holder.end:
                    busy_elsewhere = any(o.start <= mid < o.end for o in others)
                    label = QUEUE_WAIT if busy_elsewhere else holder.name
                    break
        if label is None:
            label = QUEUE_WAIT if any(s.start <= mid < s.end for s in waits) else RESIDUAL
        budget[label] = budget.get(label, 0.0) + (b - a)
    return budget


def layer_budget(
    spans: List[Span],
    samples: Dict[str, Tuple[float, float]],
    band: Tuple[float, float] = (0.45, 0.55),
    limit: int = 1500,
) -> Tuple[Dict[str, float], float, int]:
    """Mean per-name budget of the operations around the median latency.

    Returns ``(rows, latency, count)``: rows sum to ``latency``, the mean
    latency of the ``count`` operations whose latency lies in the *band* of
    the latency distribution (by default the tenth around the median), so
    the table accounts for ``op_p50_ms`` rather than for a mean that the
    tail dominates.
    """
    if not samples:
        return {}, 0.0, 0
    ranked = sorted(samples, key=lambda key: samples[key][1] - samples[key][0])
    first = int(len(ranked) * band[0])
    last = max(first + 1, int(len(ranked) * band[1]))
    chosen = ranked[first:last]
    if len(chosen) > limit:
        step = len(chosen) / limit
        chosen = [chosen[int(i * step)] for i in range(limit)]
    wanted = set(chosen)

    op_of = resolve_ops(spans)
    kids = children_of(spans)
    own: Dict[str, List[Span]] = {key: [] for key in chosen}
    holders: Dict[str, List[Tuple[Span, List[Span]]]] = {key: [] for key in chosen}
    for span in spans:
        op = op_of.get(span.id)
        if op in wanted and span.name not in DELIVERY and span.name != "bench.op":
            own[op].append(span)
    for span in spans:
        if span.name not in DELIVERY:
            continue
        served = kids.get(span.id, ())
        ops_here = {op_of.get(child.id) for child in served} & wanted
        for op in ops_here:
            others = [c for c in served if op_of.get(c.id) != op]
            holders[op].append((span, others))

    rows: Dict[str, float] = {}
    total = 0.0
    for key in chosen:
        interval = samples[key]
        total += interval[1] - interval[0]
        for name, seconds in op_budget(interval, own[key], holders[key]).items():
            rows[name] = rows.get(name, 0.0) + seconds
    count = len(chosen)
    return {name: value / count for name, value in rows.items()}, total / count, count


def render_budget(rows: Dict[str, float], latency: float, count: int, p50_ms: float) -> str:
    """The layer-budget table: one row per span name, summing to the latency."""
    lines = [
        f"layer budget over {count} ops around the median "
        f"(their mean {latency * 1e3:.4f} ms; run op_p50_ms {p50_ms:.4f})",
        f"  {'span':<28}{'us/op':>10}{'share':>9}",
    ]
    for name, seconds in sorted(rows.items(), key=lambda item: -item[1]):
        share = seconds / latency if latency else 0.0
        lines.append(f"  {name:<28}{seconds * 1e6:>10.1f}{share:>9.1%}")
    lines.append(f"  {'sum':<28}{sum(rows.values()) * 1e6:>10.1f}{1:>9.1%}")
    return "\n".join(lines)
