"""OpsServer: every route over real HTTP on an ephemeral port."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

import repro
from repro.telemetry.control import KIND_DECISION, KIND_SPAWN, DecisionJournal
from repro.telemetry.http import OpsServer
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.slo import SloEngine, SloRule
from tests.telemetry.test_slo import QueueReading


class _Component:
    def __init__(self, ok=True):
        self.ok = ok

    def probe(self):
        return {"up": float(self.ok)}


def test_the_stack_imports_no_http_server_until_ops_server_is_used():
    """``OpsServer`` resolves on first use, so a process that imports every
    layer but serves no HTTP never loads ``http.server``, ``ssl`` or ``email``."""
    script = (
        "import sys\n"
        "import repro.client, repro.metadata, repro.objectmq, repro.storage, repro.sync\n"
        "import repro.telemetry\n"
        "print(sorted({'http.server', 'ssl', 'email'} & set(sys.modules)))\n"
        "from repro.telemetry import OpsServer\n"
        "print(OpsServer.__module__, 'http.server' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["[]", "repro.telemetry.http True"]


@pytest.fixture
def stack():
    registry = MetricsRegistry()
    journal = DecisionJournal()
    slo = SloEngine(
        [SloRule.parse("backlog: queue_depth > 10 for 1")],
        registry=registry,
        journal=journal,
    )
    ops = OpsServer(registry=registry, journal=journal, slo=slo).start()
    try:
        yield registry, journal, slo, ops
    finally:
        ops.stop()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def test_index_lists_routes(stack):
    *_rest, ops = stack
    status, body = _get(ops.url + "/")
    assert status == 200
    assert set(json.loads(body)["routes"]) == {
        "/metrics", "/health", "/events", "/slo", "/profile",
    }


def test_metrics_prometheus_text(stack):
    registry, *_rest, ops = stack
    queue = QueueReading(registry, oid="q")
    queue.depth = 7
    status, body = _get(ops.url + "/metrics")
    assert status == 200
    assert 'depth{oid="q"} 7' in body


def test_health_ok_then_degraded(stack):
    registry, *_rest, ops = stack
    component = _Component(ok=True)
    registry.register_source("comp", component, _Component.probe)

    status, body = _get(ops.url + "/health")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["components"] == [
        {"component": "comp", "ok": True, "detail": {}},
    ]

    component.ok = False
    status, body = _get(ops.url + "/health")
    assert status == 503
    assert json.loads(body)["status"] == "degraded"


def test_raising_source_is_down_not_a_failed_scrape(stack):
    """A source whose read raises reports ``up`` 0: ``/metrics`` still
    answers, ``/health`` names the source, and SLO evaluation goes on."""
    registry, _journal, slo, ops = stack
    queue = QueueReading(registry)
    queue.depth = 99
    component = _Component()
    registry.register_source(
        "flaky", component,
        lambda owner: (_ for _ in ()).throw(RuntimeError("disk gone")),
        node="a",
    )

    status, body = _get(ops.url + "/metrics")
    assert status == 200
    assert 'flaky_up{node="a"} 0.0' in body
    assert "depth 99" in body

    status, body = _get(ops.url + "/health")
    assert status == 503
    (entry,) = json.loads(body)["components"]
    assert entry["component"] == 'flaky{node="a"}' and entry["ok"] is False
    assert entry["detail"]["error"] == "RuntimeError: disk gone"

    assert [t["rule"] for t in slo.evaluate(now=1.0)] == ["backlog"]


def test_events_tail_and_kind_filter(stack):
    _registry, journal, *_rest, ops = stack
    for i in range(5):
        journal.append(KIND_DECISION, float(i), reason=f"d{i}")
    journal.append(KIND_SPAWN, 9.0, reason="scale-up")

    status, body = _get(ops.url + "/events?n=3")
    assert status == 200
    payload = json.loads(body)
    assert payload["total"] == 6
    assert [e["seq"] for e in payload["events"]] == [4, 5, 6]

    _status, body = _get(ops.url + "/events?kind=spawn")
    events = json.loads(body)["events"]
    assert len(events) == 1 and events[0]["reason"] == "scale-up"

    status, body = _get(ops.url + "/events?n=0")
    assert status == 200
    assert json.loads(body) == {"events": [], "total": 6}

    # A malformed or negative count is the client's error, not a fault.
    for bad in ("abc", "-2", "1.5"):
        status, body = _get(ops.url + f"/events?n={bad}")
        assert status == 400
        error = json.loads(body)["error"]
        assert "'n'" in error and repr(bad) in error


def test_slo_route_reflects_engine_state(stack):
    registry, journal, slo, ops = stack
    queue = QueueReading(registry)
    queue.depth = 99
    slo.evaluate(now=1.0)

    status, body = _get(ops.url + "/slo")
    assert status == 200
    payload = json.loads(body)
    assert payload["active"] == ["backlog"]
    assert payload["rules"][0]["active"] is True
    # The alert edge is in the journal, hence in /events too.
    _status, body = _get(ops.url + "/events?kind=alert-fired")
    assert json.loads(body)["events"][0]["rule"] == "backlog"


def test_unknown_route_404(stack):
    *_rest, ops = stack
    status, body = _get(ops.url + "/nope")
    assert status == 404
    assert "no route" in json.loads(body)["error"]


def test_without_journal_or_slo_routes_still_serve():
    ops = OpsServer(registry=MetricsRegistry()).start()
    try:
        status, body = _get(ops.url + "/events")
        assert status == 200 and json.loads(body) == {"events": [], "total": 0}
        status, body = _get(ops.url + "/slo")
        assert status == 200 and json.loads(body) == {"rules": [], "active": []}
    finally:
        ops.stop()


def test_ephemeral_port_and_url(stack):
    *_rest, ops = stack
    assert ops.port > 0
    assert ops.url == f"http://127.0.0.1:{ops.port}"


class TestProfileRoute:
    def test_serves_tail_exemplars(self, stack):
        import time as time_mod

        from repro.telemetry.profiling import disable_exemplars, enable_exemplars
        from repro.telemetry.trace import TRACER, enable

        *_rest, ops = stack
        tracer = enable()
        enable_exemplars(min_samples=1, capacity=2)
        try:
            with tracer.span("op", layer="sync"):
                time_mod.sleep(0.005)
            status, body = _get(ops.url + "/profile")
            assert status == 200
            payload = json.loads(body)
            assert set(payload) == {"exemplars", "reservoir"}
            assert payload["reservoir"]["roots_seen"] >= 1
            assert payload["exemplars"], "tail exemplar not served"
            assert payload["exemplars"][0]["dominant_segment"] == "sync"
        finally:
            TRACER.enabled = False
            disable_exemplars()

    def test_exemplars_empty_without_a_reservoir(self, stack):
        *_rest, ops = stack
        status, body = _get(ops.url + "/profile")
        assert status == 200
        assert json.loads(body) == {"exemplars": [], "reservoir": {}}
