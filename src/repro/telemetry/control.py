"""Control-plane observability: the scaling-decision journal + health probes.

PR 2's telemetry made the *data* plane visible (commit/chunk spans, the
unified :class:`~repro.telemetry.registry.MetricsRegistry`); this module
does the same for the *control* plane the paper's elasticity loop runs on
(§3.3-3.4, Fig 8).  Two pieces:

* :class:`DecisionJournal` — a structured, append-only log of every
  Supervisor control period: the observation (λ_obs, λ_pred, interarrival
  variance, queue depth, census), which reactive threshold (τ₁/τ₂) fired,
  the active policy's proposal with its human-readable *reason*, and the
  spawn/shutdown actions taken — including crash-repair replacements (the
  Fig 8(f) behaviour).  Alert transitions from the
  :mod:`~repro.telemetry.slo` engine land in the same journal, so one
  file tells the whole story of a run.  Journals serialize to JSONL and
  load back, which is what lets ``bench/reporting`` and the
  ``stacksync-repro timeline`` command regenerate a Fig-8-style
  provisioning timeline after the fact.

* :class:`HealthRegistry` — per-component liveness/readiness probes
  (broker, metadata back-end, object store, SyncService, Supervisor)
  behind the same weakref discipline as metric sources: a component
  registers a probe at construction, a dead component silently drops out
  of the next check.  The ops endpoint's ``/health`` and ``/ready``
  routes evaluate these.

Everything here is pull-based and allocation-free on hot paths: the
journal is only written by the control loop (once per control period) and
probes run only when someone asks.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

#: Event kinds written by the Supervisor / simulation control loop.
KIND_DECISION = "decision"
KIND_SPAWN = "spawn"
KIND_SHUTDOWN = "shutdown"
#: Event kinds written by the SLO engine.
KIND_ALERT_FIRED = "alert-fired"
KIND_ALERT_RESOLVED = "alert-resolved"

#: Action reasons stamped by the control loop.
REASON_SCALE_UP = "scale-up"
REASON_SCALE_DOWN = "scale-down"
REASON_CRASH_REPAIR = "crash-repair"


@dataclass
class JournalEvent:
    """One append-only entry: a decision, an action, or an alert edge.

    ``seq`` is assigned by the journal and is what action events use to
    point back at the decision that caused them (``decision_seq``).
    ``data`` carries the kind-specific payload; :meth:`to_dict` flattens
    it so JSONL lines stay greppable/jq-able.
    """

    kind: str
    timestamp: float
    seq: int = 0
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "timestamp": self.timestamp,
            "seq": self.seq,
        }
        out.update(self.data)
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JournalEvent":
        data = dict(raw)
        kind = data.pop("kind")
        timestamp = data.pop("timestamp")
        seq = data.pop("seq", 0)
        return cls(kind=kind, timestamp=timestamp, seq=seq, data=data)


class DecisionJournal:
    """Append-only, thread-safe, bounded journal of control-plane events.

    Args:
        capacity: In-memory ring size (old events fall off; an attached
            file sink keeps everything, subject to ``max_sink_bytes``).
        path: Optional JSONL sink appended to on every event, so a
            long-running service leaves a durable operations log behind.
        max_sink_bytes: Optional size cap on the JSONL sink.  A soak run
            writes one decision plus its actions every control period per
            shard; left unbounded, a 10^5-period soak produces a journal
            file in the hundreds of megabytes.  When the next line would
            push the file past the cap, the sink is *rotated*: rewritten
            in place with the newest in-memory events that fit, so the
            file always holds the most recent history (oldest lines fall
            off, exactly like the in-memory ring).  The cap is honoured
            to within one event line; :attr:`rotations` counts rewrites.
    """

    def __init__(
        self,
        capacity: int = 100_000,
        path: Optional[str] = None,
        max_sink_bytes: Optional[int] = None,
    ):
        if max_sink_bytes is not None and max_sink_bytes <= 0:
            raise ValueError("max_sink_bytes must be positive")
        self._lock = threading.Lock()
        self._events: Deque[JournalEvent] = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self._path = path
        self._sink = open(path, "a", encoding="utf-8") if path else None
        self._max_sink_bytes = max_sink_bytes
        self._sink_bytes = self._sink.tell() if self._sink is not None else 0
        self.rotations = 0
        self.dropped = 0

    # -- writing ---------------------------------------------------------------

    def append(self, kind: str, timestamp: Optional[float] = None, **data: Any) -> JournalEvent:
        """Record one event; returns it with its assigned ``seq``."""
        event = JournalEvent(
            kind=kind,
            timestamp=time.time() if timestamp is None else timestamp,
            data=data,
        )
        with self._lock:
            event.seq = next(self._seq)
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            if self._sink is not None:
                line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
                nbytes = len(line.encode("utf-8"))
                if (
                    self._max_sink_bytes is not None
                    and self._sink_bytes + nbytes > self._max_sink_bytes
                ):
                    self._rotate_sink(nbytes)
                self._sink.write(line)
                self._sink.flush()
                self._sink_bytes += nbytes
            self._events.append(event)
        return event

    def _rotate_sink(self, incoming: int) -> None:
        """Rewrite the sink with the newest events that fit under the cap.

        Called with the lock held, before the incoming event (of
        *incoming* encoded bytes) is written, so the rewritten prefix
        plus the new line stays within ``max_sink_bytes`` whenever the
        line itself fits.  The tail is trimmed to *half* the cap, not the
        cap itself: rotating right up to the limit would leave no
        headroom and force a full rewrite on every subsequent append.
        """
        budget = max(0, self._max_sink_bytes // 2 - incoming)
        keep: List[str] = []
        used = 0
        for event in reversed(self._events):
            line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
            nbytes = len(line.encode("utf-8"))
            if used + nbytes > budget:
                break
            keep.append(line)
            used += nbytes
        keep.reverse()
        self._sink.close()
        self._sink = open(self._path, "w", encoding="utf-8")
        self._sink.writelines(keep)
        self._sink_bytes = used
        self.rotations += 1

    @property
    def sink_bytes(self) -> int:
        """Current size of the JSONL sink in bytes (0 without a sink)."""
        with self._lock:
            return self._sink_bytes

    # -- reading ---------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[JournalEvent]:
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def tail(self, n: int = 50, kind: Optional[str] = None) -> List[JournalEvent]:
        """The most recent *n* events (optionally of one kind), oldest first.

        ``n <= 0`` asks for none (a bare ``[-0:]`` slice would be all).
        """
        return self.events(kind)[-n:] if n > 0 else []

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def decisions(self) -> List[JournalEvent]:
        return self.events(KIND_DECISION)

    def actions(self) -> List[JournalEvent]:
        return [e for e in self.events() if e.kind in (KIND_SPAWN, KIND_SHUTDOWN)]

    def alerts(self) -> List[JournalEvent]:
        return [
            e for e in self.events()
            if e.kind in (KIND_ALERT_FIRED, KIND_ALERT_RESOLVED)
        ]

    # -- serialization ---------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in self.events()
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "DecisionJournal":
        journal = cls()
        with open(path, "r", encoding="utf-8") as fh:
            events = load_journal_lines(fh)
        with journal._lock:
            journal._events.extend(events)
            journal._seq = itertools.count(
                max((e.seq for e in events), default=0) + 1
            )
        return journal

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


def load_journal_lines(lines: Iterable[str]) -> List[JournalEvent]:
    """Parse JSONL journal lines (blank lines ignored)."""
    events: List[JournalEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        events.append(JournalEvent.from_dict(json.loads(line)))
    return events


# -- health probes -----------------------------------------------------------------


@dataclass
class ProbeResult:
    """Outcome of one component probe."""

    component: str
    ok: bool
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Only required probes gate readiness (/ready); all gate /health.
    required: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "ok": self.ok,
            "required": self.required,
            "detail": self.detail,
        }


class _Probe:
    """A registered probe, weakly bound to its owning component."""

    def __init__(
        self,
        component: str,
        owner: Any,
        check: Callable[[Any], Dict[str, Any]],
        required: bool,
    ):
        self.component = component
        self.ref = weakref.ref(owner)
        self.check = check
        self.required = required


class HealthRegistry:
    """Process-wide store of component health probes.

    A probe is ``check(owner) -> detail dict``; the probe passes when it
    returns without raising and its detail has no ``{"ok": False}`` entry.
    Owners are weakly held — garbage-collected components disappear from
    the next :meth:`check` instead of reporting as dead forever.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._probes: Dict[int, _Probe] = {}
        self._ids = itertools.count(1)

    def register(
        self,
        component: str,
        owner: Any,
        check: Callable[[Any], Dict[str, Any]],
        required: bool = True,
    ) -> int:
        """Register ``check(owner)`` under *component*; returns a token."""
        probe = _Probe(component, owner, check, required)
        with self._lock:
            token = next(self._ids)
            self._probes[token] = probe
        return token

    def unregister(self, token: int) -> None:
        with self._lock:
            self._probes.pop(token, None)

    def check(self) -> List[ProbeResult]:
        """Run every live probe; prune the dead ones."""
        with self._lock:
            probes = list(self._probes.items())
        results: List[ProbeResult] = []
        dead: List[int] = []
        for token, probe in probes:
            owner = probe.ref()
            if owner is None:
                dead.append(token)
                continue
            try:
                detail = probe.check(owner) or {}
                ok = bool(detail.pop("ok", True))
            except Exception as exc:  # noqa: BLE001 - a probe must never kill /health
                detail = {"error": f"{type(exc).__name__}: {exc}"}
                ok = False
            results.append(
                ProbeResult(
                    component=probe.component,
                    ok=ok,
                    detail=detail,
                    required=probe.required,
                )
            )
        if dead:
            with self._lock:
                for token in dead:
                    self._probes.pop(token, None)
        return results

    def healthy(self) -> bool:
        """True when every live probe passes."""
        return all(r.ok for r in self.check())

    def ready(self) -> bool:
        """True when every *required* live probe passes."""
        return all(r.ok for r in self.check() if r.required)

    def clear(self) -> None:
        with self._lock:
            self._probes.clear()


#: The process-wide health registry components wire themselves into,
#: mirroring :data:`repro.telemetry.registry.REGISTRY`.
HEALTH = HealthRegistry()


def get_health_registry() -> HealthRegistry:
    return HEALTH
