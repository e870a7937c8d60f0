"""Declarative SLO/alert rules evaluated against MetricsRegistry scrapes.

The elasticity loop's operational contract (§4.3, Table 3) is a set of
sustained conditions — "queue depth stayed above the backlog budget",
"p99 commitRequest latency blew the 450 ms SLA", "redeliveries are
climbing" — and operators judge a broker-based service exactly by such
signals.  This module turns those into data:

* :class:`SloRule` — one condition over one metric series, with a
  *sustain* requirement (``for N`` consecutive evaluation periods) so a
  single control-period blip does not page anyone.  Rules parse from a
  one-line declarative syntax (see :meth:`SloRule.parse`)::

      queue-backlog: supervisor_queue_depth > 50 for 3
      commit-p95:    omq_proxy_p95_seconds > 0.45 for 2 severity=page

* :class:`SloEngine` — evaluates every rule against a
  :class:`~repro.telemetry.registry.MetricsRegistry` snapshot once per
  control period, tracks breach streaks, and writes ``alert-fired`` /
  ``alert-resolved`` events into the same
  :class:`~repro.telemetry.control.DecisionJournal` the Supervisor
  writes its scaling decisions to — so the journal timeline interleaves
  *what the service did* with *when it was out of contract*.

Series matching: a rule's ``series`` matches a snapshot key exactly, or
any labeled variant of it (``name{label="v"}``).  When several labeled
series match, the rule evaluates the worst case (max for ``>`` rules,
min for ``<`` rules), which is what an alert on "any queue too deep"
means.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.control import (
    KIND_ALERT_FIRED,
    KIND_ALERT_RESOLVED,
    DecisionJournal,
)
from repro.telemetry.registry import MetricsRegistry, get_registry

_RULE_RE = re.compile(
    r"""^\s*(?P<name>[\w.-]+)\s*:\s*        # rule name
        (?P<series>[\w.{}="',-]+)\s*        # metric series
        (?P<op>[<>])\s*
        (?P<threshold>-?\d+(?:\.\d+)?)\s*
        (?:for\s+(?P<periods>\d+)\s*)?      # sustain periods (default 1)
        (?:severity=(?P<severity>\w+)\s*)?  # default "warn"
        $""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class SloRule:
    """One declarative alert condition over a metrics series."""

    name: str
    series: str
    op: str  # ">" or "<"
    threshold: float
    periods: int = 1
    severity: str = "warn"

    def __post_init__(self) -> None:
        if self.op not in (">", "<"):
            raise ValueError(f"op must be '>' or '<', got {self.op!r}")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")

    @classmethod
    def parse(cls, line: str) -> "SloRule":
        """Parse ``name: series > threshold [for N] [severity=level]``."""
        match = _RULE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable SLO rule: {line!r}")
        return cls(
            name=match.group("name"),
            series=match.group("series"),
            op=match.group("op"),
            threshold=float(match.group("threshold")),
            periods=int(match.group("periods") or 1),
            severity=match.group("severity") or "warn",
        )

    @classmethod
    def parse_many(cls, text: str) -> List["SloRule"]:
        """Parse one rule per line; blank lines and ``#`` comments skipped."""
        rules = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rules.append(cls.parse(line))
        return rules

    def breached(self, value: float) -> bool:
        return value > self.threshold if self.op == ">" else value < self.threshold

    def render(self) -> str:
        return (
            f"{self.name}: {self.series} {self.op} {self.threshold:g} "
            f"for {self.periods} severity={self.severity}"
        )


@dataclass
class _RuleState:
    streak: int = 0
    active: bool = False
    since: Optional[float] = None
    last_value: Optional[float] = None


class SloEngine:
    """Evaluates SLO rules each control period; journals alert edges."""

    def __init__(
        self,
        rules: Sequence[SloRule],
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[DecisionJournal] = None,
    ):
        self.rules = list(rules)
        self.registry = registry if registry is not None else get_registry()
        self.journal = journal
        self._lock = threading.Lock()
        self._states: Dict[str, _RuleState] = {r.name: _RuleState() for r in self.rules}

    # -- evaluation ------------------------------------------------------------

    def _rule_value(self, rule: SloRule, snapshot: Dict[str, float]) -> Optional[float]:
        exact = snapshot.get(rule.series)
        if exact is not None:
            return exact
        prefix = rule.series + "{"
        matches = [v for k, v in snapshot.items() if k.startswith(prefix)]
        if not matches:
            return None
        # Worst-case across labeled variants: the breach-most value.
        return max(matches) if rule.op == ">" else min(matches)

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Run one evaluation pass; returns the alert transitions it caused.

        *now* is the control loop's notion of time (simulated seconds in
        the DES benchmarks, wall clock live) and is stamped onto journal
        events verbatim so the timeline lines up with decisions.
        """
        now = time.time() if now is None else now
        snapshot = self.registry.snapshot()
        transitions: List[Dict[str, Any]] = []
        with self._lock:
            for rule in self.rules:
                state = self._states[rule.name]
                value = self._rule_value(rule, snapshot)
                state.last_value = value
                breached = value is not None and rule.breached(value)
                state.streak = state.streak + 1 if breached else 0
                if breached and not state.active and state.streak >= rule.periods:
                    state.active = True
                    state.since = now
                    transitions.append(self._transition(
                        KIND_ALERT_FIRED, rule, value, now
                    ))
                elif not breached and state.active:
                    state.active = False
                    state.since = None
                    transitions.append(self._transition(
                        KIND_ALERT_RESOLVED, rule, value, now
                    ))
        if self.journal is not None:
            for transition in transitions:
                data = {k: v for k, v in transition.items()
                        if k not in ("kind", "timestamp")}
                self.journal.append(transition["kind"], transition["timestamp"], **data)
        return transitions

    def _transition(
        self, kind: str, rule: SloRule, value: Optional[float], now: float
    ) -> Dict[str, Any]:
        return {
            "kind": kind,
            "timestamp": now,
            "rule": rule.name,
            "series": rule.series,
            "op": rule.op,
            "threshold": rule.threshold,
            "value": value,
            "severity": rule.severity,
        }

    # -- introspection -----------------------------------------------------------

    def status(self) -> List[Dict[str, Any]]:
        """Per-rule state for the ops endpoint's ``/slo`` route."""
        with self._lock:
            return [
                {
                    "rule": rule.name,
                    "definition": rule.render(),
                    "active": self._states[rule.name].active,
                    "streak": self._states[rule.name].streak,
                    "since": self._states[rule.name].since,
                    "last_value": self._states[rule.name].last_value,
                    "severity": rule.severity,
                }
                for rule in self.rules
            ]

    def active_alerts(self) -> List[str]:
        with self._lock:
            return [name for name, s in self._states.items() if s.active]


#: Example ruleset used by the demo ops run and documented in the README.
DEFAULT_RULES_TEXT = """
# Sustained request backlog on the SyncService queue.
queue-backlog: supervisor_queue_depth > 50 for 3
# Pool pinned at zero while traffic flows (census collapse).
pool-empty: supervisor_pool_size < 1 for 2
# Redeliveries climbing: consumers are dying mid-message.
redelivery: supervisor_queue_redelivered > 10 for 3 severity=page
"""


def default_rules() -> List[SloRule]:
    return SloRule.parse_many(DEFAULT_RULES_TEXT)
