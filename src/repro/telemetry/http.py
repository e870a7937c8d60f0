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
``/bench``     JSON tail of the performance trajectory (``?n=``), when the
               server was given a ``bench_path``
``/profile``   JSON sampling-profiler state (hottest stacks + collapsed
               lines) and tail-exemplar summaries; ``?seconds=&hz=`` runs
               a synchronous burst profile first
``/``          JSON index of the routes above
=============  ==================================================================

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


#: Every route `_OpsHandler` serves besides the ``/`` index; the index
#: and the ``ops`` CLI banner both print this.
ROUTES = (
    "/metrics", "/health", "/ready", "/events", "/slo", "/bench", "/profile",
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
                self._send_json(200, ops.events_payload(
                    n=int(query.get("n", ["100"])[0]),
                    kind=query.get("kind", [None])[0],
                ))
            elif route == "/slo":
                self._send_json(200, ops.slo_payload())
            elif route == "/bench":
                self._send_json(200, ops.bench_payload(
                    n=int(query.get("n", ["5"])[0]),
                ))
            elif route == "/profile":
                seconds = float(query.get("seconds", ["0"])[0])
                self._send_json(200, ops.profile_payload(
                    seconds=seconds,
                    hz=float(query.get("hz", ["100"])[0]),
                    top=int(query.get("top", ["10"])[0]),
                ))
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
        bench_path: Performance-trajectory file backing ``/bench``
            (optional — normally the repo's ``BENCH_soak.json``).  Read
            fresh on every request so a soak appending to the file is
            visible without restarting the endpoint.
        port: TCP port; 0 picks an ephemeral port (read it back from
            :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[DecisionJournal] = None,
        health: Optional[HealthRegistry] = None,
        slo: Optional[SloEngine] = None,
        bench_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.registry = registry if registry is not None else get_registry()
        self.journal = journal
        self.health = health if health is not None else HEALTH
        self.slo = slo
        self.bench_path = bench_path
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

    #: Upper bound on a synchronous `/profile?seconds=` burst: the request
    #: thread blocks while sampling, so keep bursts scrape-friendly.
    MAX_BURST_SECONDS = 10.0

    def profile_payload(
        self, seconds: float = 0.0, hz: float = 100.0, top: int = 10
    ) -> Dict[str, Any]:
        """Sampling-profiler state plus tail-exemplar summaries.

        With ``seconds > 0`` the request synchronously runs the global
        :class:`StackSampler` for that long (capped at
        :data:`MAX_BURST_SECONDS`, skipped when it is already running)
        and then reports.  With ``seconds == 0`` it reports whatever the
        sampler has accumulated so far.  ``exemplars`` / ``reservoir``
        are empty unless :func:`enable_exemplars` attached a reservoir.
        """
        from repro.telemetry.profiling import get_profiler
        from repro.telemetry.trace import TRACER

        profiler = get_profiler()
        burst = 0.0
        if seconds > 0 and not profiler.running:
            burst = min(seconds, self.MAX_BURST_SECONDS)
            profiler.hz = max(1.0, hz)
            profiler.start()
            try:
                threading.Event().wait(burst)
            finally:
                profiler.stop()
        reservoir = TRACER.exemplars
        exemplars = reservoir.exemplars() if reservoir is not None else []
        return {
            "running": profiler.running,
            "hz": profiler.hz,
            "burst_seconds": burst,
            "samples": profiler.sample_count,
            "ticks": profiler.tick_count,
            "active_seconds": profiler.active_seconds,
            "hottest": [
                {"frame": frame, "samples": count}
                for frame, count in profiler.hottest(top)
            ],
            "collapsed": profiler.collapsed().splitlines(),
            "exemplars": [e.to_dict() for e in exemplars],
            "reservoir": reservoir.stats() if reservoir is not None else {},
        }

    def bench_payload(self, n: int = 5) -> Dict[str, Any]:
        if self.bench_path is None:
            return {"path": None, "benchmark": None, "total": 0, "entries": []}
        # Imported here: repro.bench pulls in the soak harness, which uses
        # the telemetry package — a module-level import would be circular.
        from repro.bench.trajectory import Trajectory

        trajectory = Trajectory.load(self.bench_path)
        entries = trajectory.entries[-max(0, n):] if n > 0 else []
        return {
            "path": self.bench_path,
            "benchmark": trajectory.benchmark,
            "total": len(trajectory),
            "entries": [entry.to_dict() for entry in entries],
        }
