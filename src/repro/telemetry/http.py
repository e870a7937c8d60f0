"""The ops endpoint: stdlib-``http.server`` scrape/health/alert surface.

Real deployments judge a sync middleware by its operational surfaces —
a Prometheus scrape target, liveness/readiness probes for the scheduler,
and a way to ask "what did the autoscaler just do, and why".  This
module serves all of them from one tiny threaded HTTP server with zero
dependencies:

=============  ==================================================================
Route          Payload
=============  ==================================================================
``/metrics``   Prometheus text exposition of the unified MetricsRegistry
``/health``    JSON per-component probe results (200 all-pass / 503 otherwise)
``/ready``     JSON readiness (required probes only; 200 / 503)
``/events``    JSON tail of the scaling-decision journal (``?n=``, ``?kind=``)
``/slo``       JSON SLO rule status from the alert engine
``/profile``   JSON tail-exemplar summaries and reservoir counters (empty
               unless a reservoir is attached to the tracer)
``/``          JSON index of the routes above
=============  ==================================================================

A malformed or negative ``?n=`` answers 400 naming the parameter; only a
fault in the process itself answers 500.

Usage::

    ops = OpsServer(journal=journal, slo=engine, port=0)  # 0 = ephemeral
    ops.start()
    print(ops.url)      # e.g. http://127.0.0.1:49152
    ...
    ops.stop()
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.telemetry.control import (
    HEALTH,
    DecisionJournal,
    HealthRegistry,
)
from repro.telemetry.registry import MetricsRegistry, get_registry
from repro.telemetry.slo import SloEngine
from repro.telemetry.trace import TRACER


#: Every route `_OpsHandler` serves besides the ``/`` index; the index
#: and the ``ops`` CLI banner both print this.
ROUTES = (
    "/metrics", "/health", "/ready", "/events", "/slo", "/profile",
)


class _OpsHandler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`OpsServer`."""

    server: "_OpsHTTPServer"

    # Silence the default stderr access log; ops surfaces are scraped
    # once a second and must not spam the console.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        ops = self.server.ops
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        try:
            if route == "/metrics":
                self._send_text(200, ops.registry.render_prometheus())
            elif route == "/health":
                status, payload = ops.health_payload()
                self._send_json(status, payload)
            elif route == "/ready":
                status, payload = ops.ready_payload()
                self._send_json(status, payload)
            elif route == "/events":
                n = query.get("n", ["100"])[0]
                if not n.isdecimal():
                    self._send_json(400, {
                        "error": "query parameter 'n' must be a non-negative "
                                 f"integer, got {n!r}",
                    })
                else:
                    self._send_json(200, ops.events_payload(
                        n=int(n), kind=query.get("kind", [None])[0],
                    ))
            elif route == "/slo":
                self._send_json(200, ops.slo_payload())
            elif route == "/profile":
                self._send_json(200, ops.profile_payload())
            elif route == "/":
                self._send_json(200, {
                    "service": "stacksync-repro ops",
                    "routes": list(ROUTES),
                })
            else:
                self._send_json(404, {"error": f"no route {route!r}"})
        except Exception as exc:  # noqa: BLE001 - the endpoint must stay up
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # -- response helpers -------------------------------------------------------

    def _send_text(self, status: int, body: str) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _send_json(self, status: int, payload: Any) -> None:
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)


class _OpsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    ops: "OpsServer"


class OpsServer:
    """Serves the ops routes for one process on a background thread.

    Args:
        registry: Metrics registry backing ``/metrics`` (default: the
            process-wide one).
        journal: Decision journal backing ``/events`` (optional — the
            route serves an empty list without one).
        health: Health registry backing ``/health``/``/ready`` (default:
            the process-wide one).
        slo: Alert engine backing ``/slo`` (optional).
        port: TCP port; 0 picks an ephemeral port (read it back from
            :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[DecisionJournal] = None,
        health: Optional[HealthRegistry] = None,
        slo: Optional[SloEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry if registry is not None else get_registry()
        self.journal = journal
        self.health = health if health is not None else HEALTH
        self.slo = slo
        self.host = host
        self._requested_port = port
        self._server: Optional[_OpsHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "OpsServer":
        if self._server is not None:
            return self
        self._server = _OpsHTTPServer((self.host, self._requested_port), _OpsHandler)
        self._server.ops = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="ops-endpoint", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("ops server is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- payload builders (shared with tests and the CLI) -------------------------

    def health_payload(self) -> Tuple[int, Dict[str, Any]]:
        results = self.health.check()
        all_ok = all(r.ok for r in results)
        return (
            200 if all_ok else 503,
            {
                "status": "ok" if all_ok else "degraded",
                "components": [r.to_dict() for r in results],
            },
        )

    def ready_payload(self) -> Tuple[int, Dict[str, Any]]:
        results = self.health.check()
        ready = all(r.ok for r in results if r.required)
        return (
            200 if ready else 503,
            {
                "ready": ready,
                "required": [r.to_dict() for r in results if r.required],
            },
        )

    def events_payload(self, n: int = 100, kind: Optional[str] = None) -> Dict[str, Any]:
        if self.journal is None:
            return {"events": [], "total": 0}
        return {
            "events": [e.to_dict() for e in self.journal.tail(n, kind=kind)],
            "total": len(self.journal),
        }

    def slo_payload(self) -> Dict[str, Any]:
        if self.slo is None:
            return {"rules": [], "active": []}
        return {"rules": self.slo.status(), "active": self.slo.active_alerts()}

    def profile_payload(self) -> Dict[str, Any]:
        """Tail-exemplar summaries (slowest first) and reservoir counters.

        Both are empty unless :func:`enable_exemplars` attached a
        reservoir to the tracer.
        """
        reservoir = TRACER.exemplars
        if reservoir is None:
            return {"exemplars": [], "reservoir": {}}
        return {
            "exemplars": [e.to_dict() for e in reservoir.exemplars()],
            "reservoir": reservoir.stats(),
        }
