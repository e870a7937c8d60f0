"""SLO rule parsing + engine evaluation against registry snapshots."""

from __future__ import annotations

import pytest

from repro.telemetry.control import (
    KIND_ALERT_FIRED,
    KIND_ALERT_RESOLVED,
    DecisionJournal,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.slo import DEFAULT_RULES_TEXT, SloEngine, SloRule, default_rules


class QueueReading:
    """A small registry source: its owner's ``depth`` is the series
    ``queue_depth`` (plus the owner's labels)."""

    def __init__(self, registry, **labels):
        self.depth = 0.0
        registry.register_source("queue", self, lambda q: {"depth": q.depth}, **labels)


class TestSloRuleParsing:
    def test_parse_full_form(self):
        rule = SloRule.parse(
            "commit-p99: omq_proxy_call_seconds_p99 > 0.45 for 2 severity=page"
        )
        assert rule.name == "commit-p99"
        assert rule.series == "omq_proxy_call_seconds_p99"
        assert rule.op == ">"
        assert rule.threshold == pytest.approx(0.45)
        assert rule.periods == 2
        assert rule.severity == "page"

    def test_parse_defaults(self):
        rule = SloRule.parse("backlog: queue_depth > 50")
        assert rule.periods == 1
        assert rule.severity == "warn"

    def test_parse_less_than(self):
        rule = SloRule.parse("pool-empty: pool_size < 1 for 2")
        assert rule.op == "<"
        assert rule.breached(0.0)
        assert not rule.breached(1.0)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SloRule.parse("not a rule")
        with pytest.raises(ValueError):
            SloRule.parse("name: series >= 5")

    def test_parse_many_skips_comments(self):
        rules = SloRule.parse_many("# comment\n\na: x > 1\nb: y < 2 for 3\n")
        assert [r.name for r in rules] == ["a", "b"]

    def test_default_rules_parse(self):
        rules = default_rules()
        assert rules == SloRule.parse_many(DEFAULT_RULES_TEXT)
        assert any(r.severity == "page" for r in rules)

    def test_render_roundtrip(self):
        rule = SloRule.parse("a: x > 1.5 for 2 severity=page")
        assert SloRule.parse(rule.render()) == rule


class TestSloEngine:
    def _engine(self, rule_text, journal=None):
        registry = MetricsRegistry()
        engine = SloEngine(
            SloRule.parse_many(rule_text), registry=registry, journal=journal
        )
        return registry, engine

    def test_fires_only_after_sustained_breach(self):
        registry, engine = self._engine("backlog: queue_depth > 10 for 3")
        queue = QueueReading(registry)

        queue.depth = 50
        assert engine.evaluate(now=1.0) == []
        assert engine.evaluate(now=2.0) == []
        (fired,) = engine.evaluate(now=3.0)
        assert fired["kind"] == KIND_ALERT_FIRED
        assert fired["rule"] == "backlog"
        assert fired["value"] == 50.0
        assert engine.active_alerts() == ["backlog"]

        # A blip below the threshold resolves it.
        queue.depth = 5
        (resolved,) = engine.evaluate(now=4.0)
        assert resolved["kind"] == KIND_ALERT_RESOLVED
        assert engine.active_alerts() == []

    def test_single_blip_never_fires(self):
        registry, engine = self._engine("backlog: queue_depth > 10 for 3")
        queue = QueueReading(registry)
        for now in range(10):
            queue.depth = 50 if now % 2 == 0 else 0
            engine.evaluate(now=float(now))
        assert engine.active_alerts() == []

    def test_missing_series_is_not_a_breach(self):
        _registry, engine = self._engine("ghost: nothing_here > 0 for 1")
        assert engine.evaluate(now=1.0) == []
        assert engine.status()[0]["last_value"] is None

    def test_labeled_series_worst_case(self):
        registry, engine = self._engine("backlog: queue_depth > 10 for 1")
        a, b = QueueReading(registry, oid="a"), QueueReading(registry, oid="b")
        a.depth, b.depth = 3, 30
        (fired,) = engine.evaluate(now=1.0)
        # max across labeled variants for a ">" rule
        assert fired["value"] == 30.0

    def test_transitions_land_in_journal(self):
        journal = DecisionJournal()
        registry, engine = self._engine("backlog: queue_depth > 10 for 1", journal=journal)
        queue = QueueReading(registry)
        queue.depth = 99
        engine.evaluate(now=7.0)
        queue.depth = 0
        engine.evaluate(now=8.0)

        alerts = journal.alerts()
        assert [a.kind for a in alerts] == [KIND_ALERT_FIRED, KIND_ALERT_RESOLVED]
        assert alerts[0].timestamp == 7.0
        assert alerts[0].data["severity"] == "warn"
        assert alerts[0].data["threshold"] == 10.0

    def test_status(self):
        registry, engine = self._engine("backlog: queue_depth > 10 for 1")
        queue = QueueReading(registry)
        queue.depth = 99
        engine.evaluate(now=1.0)
        (status,) = engine.status()
        assert status["active"] and status["since"] == 1.0
        assert engine.active_alerts() == ["backlog"]
