"""Dynamic client stubs (§3.1-3.2).

A :class:`Proxy` is generated at ``lookup`` time from a @remote_interface
class: no compilation, no preprocessing, no knowledge of server addresses.
Each interface method becomes a bound callable whose behaviour follows its
:class:`~repro.objectmq.annotations.CallSpec`:

========  =====  ==============================================
kind      multi  behaviour
========  =====  ==============================================
async     no     publish to the ``oid`` queue, return None
sync      no     publish + block on the reply (timeout × retries)
async     yes    publish to the ``oid.multi`` fanout, return count
sync      yes    fanout publish + collect replies until timeout
========  =====  ==============================================

A fanout reaches one queue per serving Broker, which runs the call on each
of its local instances; so a multicast's count is of Brokers, while a sync
multicast still collects one reply per instance.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List

from repro.errors import DeliveryError, RemoteInvocationError, RemoteTimeout
from repro.mom.message import Message
from repro.objectmq.annotations import CallSpec
from repro.objectmq.naming import multi_exchange_name
from repro.objectmq.envelope import make_request, new_correlation_id
from repro.telemetry.registry import REGISTRY
from repro.telemetry.stats import percentile as _shared_percentile
from repro.telemetry.trace import TRACE_KEY, TRACER

logger = logging.getLogger(__name__)


class CallStats:
    """Per-proxy client-side latency statistics (thread-safe).

    Aggregates (count / mean / max) are exact over every call ever made;
    the per-call samples backing the percentile accessors live in a
    bounded reservoir of the most recent :data:`RESERVOIR_SIZE` calls, so
    a proxy that serves millions of invocations stays O(1) in memory.
    """

    RESERVOIR_SIZE = 10_000

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.timeouts = 0
        self.total_time = 0.0
        self.max_time = 0.0
        self._recent: Deque[float] = deque(maxlen=self.RESERVOIR_SIZE)

    def record(self, elapsed: float) -> None:
        with self._lock:
            self.calls += 1
            self.total_time += elapsed
            if elapsed > self.max_time:
                self.max_time = elapsed
            self._recent.append(elapsed)

    def record_timeout(self) -> None:
        with self._lock:
            self.calls += 1
            self.timeouts += 1

    def percentile(self, fraction: float) -> float:
        """Percentile over the recent-sample reservoir.

        Delegates to :func:`repro.telemetry.stats.percentile` — the one
        linear-interpolation implementation shared with
        :mod:`repro.simulation.metrics` — so client-side and simulation
        percentiles agree even at small n.
        """
        with self._lock:
            recent = list(self._recent)
        return _shared_percentile(recent, fraction)

    def scrape(self) -> dict:
        """Registry-source view of this proxy's call statistics."""
        with self._lock:
            recent = list(self._recent)
            calls, timeouts = self.calls, self.timeouts
            total, maximum = self.total_time, self.max_time
        completed = calls - timeouts
        return {
            "calls": calls,
            "timeouts": timeouts,
            "mean_seconds": total / completed if completed else 0.0,
            "max_seconds": maximum,
            "p50_seconds": _shared_percentile(recent, 0.50),
            "p95_seconds": _shared_percentile(recent, 0.95),
        }


class Proxy:
    """Client stub for one remote object identifier."""

    def __init__(self, broker, oid: str, specs: Dict[str, CallSpec], interface_name: str):
        self._broker = broker
        self._oid = oid
        self._interface_name = interface_name
        self._specs = specs
        self._multi_exchange_declared = False
        self.call_stats = CallStats()
        REGISTRY.register_source(
            "omq_proxy",
            self.call_stats,
            CallStats.scrape,
            oid=oid,
            interface=interface_name,
        )
        for method_name, spec in specs.items():
            setattr(self, method_name, self._make_method(method_name, spec))

    def __repr__(self) -> str:
        return f"<Proxy {self._interface_name} -> {self._oid!r}>"

    # -- stub construction -----------------------------------------------------

    def _make_method(self, method_name: str, spec: CallSpec):
        if spec.multi and spec.kind == "sync":
            invoke, kind = self._invoke_multi_sync, "multicall"
        elif spec.multi:
            invoke, kind = self._invoke_multi_async, "multicast"
        elif spec.kind == "sync":
            invoke, kind = self._invoke_sync, "call"
        else:
            invoke, kind = self._invoke_async, "cast"
        span_name = f"proxy.{kind}:{method_name}"
        params = spec.params

        def call(*args: Any, **kwargs: Any) -> Any:
            if kwargs:  # send the keyword arguments that fill positions as args
                for name in params[len(args):]:
                    if name not in kwargs:
                        break
                    args += (kwargs.pop(name),)
            if TRACER.enabled:  # else no span and no context manager at all
                with TRACER.span(span_name, layer="proxy"):
                    return invoke(method_name, spec, args, kwargs)
            return invoke(method_name, spec, args, kwargs)

        call.__name__ = method_name
        call.__qualname__ = f"{self._interface_name}.{method_name}"
        return call

    # -- invocation paths ----------------------------------------------------------

    def _publish(self, exchange: str, routing_key: str, envelope: dict) -> int:
        if self._broker.call_context:
            envelope["context"] = dict(self._broker.call_context)
        if TRACER.enabled:
            # Propagate the trace inside the envelope, where the skeleton
            # reads it.  Nothing is attached when tracing is off, so the
            # wire bytes are identical to the untraced build.
            wire = TRACER.inject()
            if wire is not None:
                envelope[TRACE_KEY] = wire
            with TRACER.span(
                f"proxy.serialize:{envelope.get('method', '?')}", layer="proxy"
            ):
                body = self._broker.codec.encode(envelope)
        else:
            body = self._broker.codec.encode(envelope)
        message = Message(
            body=body,
            routing_key=routing_key,
            reply_to=envelope.get("reply_to"),
            correlation_id=envelope.get("correlation_id"),
        )
        return self._broker.mom.publish(exchange, routing_key, message)

    def _invoke_async(self, method: str, spec: CallSpec, args, kwargs) -> None:
        envelope = make_request(method, list(args), kwargs, call="async", multi=False)
        self._publish("", self._oid, envelope)

    def _invoke_sync(self, method: str, spec: CallSpec, args, kwargs) -> Any:
        correlation_id = new_correlation_id()
        envelope = make_request(
            method,
            list(args),
            kwargs,
            call="sync",
            multi=False,
            reply_to=self._broker.response_queue_name,
            correlation_id=correlation_id,
        )
        waiter = self._broker.register_waiter(correlation_id)
        started = time.perf_counter()
        try:
            attempts = 1 + max(0, spec.retry)
            for attempt in range(attempts):
                self._publish("", self._oid, envelope)
                reply = waiter.take(spec.timeout)
                if reply is not None:
                    self.call_stats.record(time.perf_counter() - started)
                    return self._unwrap(method, reply)
                logger.debug(
                    "sync call %s.%s attempt %d/%d timed out",
                    self._oid, method, attempt + 1, attempts,
                )
            self.call_stats.record_timeout()
            raise RemoteTimeout(
                f"{self._interface_name}.{method} on {self._oid!r}: no reply after "
                f"{attempts} attempt(s) x {spec.timeout}s"
            )
        finally:
            self._broker.unregister_waiter(correlation_id)

    def _invoke_multi_async(self, method: str, spec: CallSpec, args, kwargs) -> int:
        """Publish to the group's fanout; return how many Brokers it reached.

        A multicast to an empty group is a no-op by contract: a publish that
        no binding takes raises :class:`DeliveryError`, which reads as 0.
        The fanout itself is never missing: this proxy declared it, and the
        MOM drops no exchange.  The broker's stats count the miss as one
        unroutable publish, as they count a publish that raced the last
        unbind.  Callers on a hot path ask
        :meth:`~repro.objectmq.broker.Broker.multicast_has_listeners` first.
        """
        envelope = make_request(method, list(args), kwargs, call="async", multi=True)
        try:
            return self._publish(self._multi_exchange(), self._oid, envelope)
        except DeliveryError:
            return 0

    def _invoke_multi_sync(self, method: str, spec: CallSpec, args, kwargs) -> List[Any]:
        correlation_id = new_correlation_id()
        envelope = make_request(
            method,
            list(args),
            kwargs,
            call="sync",
            multi=True,
            reply_to=self._broker.response_queue_name,
            correlation_id=correlation_id,
        )
        waiter = self._broker.register_waiter(correlation_id)
        results: List[Any] = []
        started = time.perf_counter()
        try:
            try:
                brokers = self._publish(self._multi_exchange(), self._oid, envelope)
            except DeliveryError:  # an empty group, as async
                return []
            # Each reply names its Broker and how many local instances the
            # call ran on there; a Broker not yet heard from counts as one,
            # so *expected* is exact once every Broker has answered.
            reached: Dict[str, int] = {}
            deadline = time.monotonic() + spec.timeout
            while True:
                expected = sum(reached.values()) + brokers - len(reached)
                needed = expected if spec.quorum is None else min(spec.quorum, expected)
                if len(results) >= needed:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                reply = waiter.take(remaining)
                if reply is None:
                    break
                reached[reply.get("responder")] = reply.get("reached", 1)
                results.append(self._unwrap(method, reply))
            self.call_stats.record(time.perf_counter() - started)
            return results
        finally:
            self._broker.unregister_waiter(correlation_id)

    def _multi_exchange(self) -> str:
        exchange = multi_exchange_name(self._oid)
        if not self._multi_exchange_declared:
            # Declaration is idempotent; remember it so the multicast hot
            # path stops paying a broker-lock trip per call.
            self._broker.mom.declare_exchange(exchange, "fanout")
            self._multi_exchange_declared = True
        return exchange

    @staticmethod
    def _unwrap(method: str, reply: dict) -> Any:
        error = reply.get("error")
        if error is None:
            return reply.get("result")
        raise RemoteInvocationError(method, error or "unknown error")
