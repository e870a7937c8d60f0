"""Server-side dispatcher for one bound remote object instance.

An instance is reached two ways (Fig 1):

* the shared **unicast queue** named ``oid``, which the :class:`Skeleton`
  consumes itself — the MOM round-robins each message to one idle instance
  (prefetch 1), which is ObjectMQ's transparent load balancing;
* the fanout exchange ``oid.multi`` for every @MultiMethod call.  The
  instance has no queue of its own there: its :class:`~repro.objectmq.broker.Broker`
  binds one multicast queue per connection and runs each delivery on every
  local instance of the oid, through :meth:`Skeleton.invoke`.

Deliveries are acked only after the invocation finishes, so a crash while
processing re-queues the message for another instance (§3.4).
"""

from __future__ import annotations

import itertools
import logging
import time
from typing import Any

from repro.mom.message import Delivery, Message
from repro.objectmq.envelope import make_reply
from repro.objectmq.introspection import ObjectInfo
from repro.telemetry.registry import REGISTRY
from repro.telemetry.trace import (
    DEQUEUED_AT_KEY,
    ENQUEUED_AT_KEY,
    TRACE_KEY,
    TRACER,
    TraceContext,
)

logger = logging.getLogger(__name__)

#: Numbers instance ids in this process.  With the Broker's ``client_id``,
#: unique among live Brokers (its reply queue is named after it), an id
#: is unique without a random draw.
_instance_numbers = itertools.count(1)


class Skeleton:
    """Dispatches decoded RPC envelopes onto a target object."""

    def __init__(
        self, broker, oid: str, target: Any, prefetch: int = 1, interceptors=None
    ):
        self.broker = broker
        self.oid = oid
        self.target = target
        self.prefetch = prefetch
        self.interceptors = list(interceptors or ())
        self.instance_id = f"{oid}.inst.{broker.client_id}.{next(_instance_numbers)}"
        self.object_info = ObjectInfo(
            oid=oid, instance_id=self.instance_id, broker_id=broker.client_id
        )
        # Give HasObjectInfo subclasses (and duck-typed peers) access.
        try:
            target.object_info = self.object_info
        except AttributeError:
            pass
        self._unicast_tag = f"{self.instance_id}.uni"
        self._running = False
        self._metrics_token = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        mom = self.broker.mom
        mom.declare_queue(self.oid)
        # Flip the flag *before* subscribing: queued messages are delivered
        # synchronously with consume(), and a delivery observed while
        # _running is False is treated as arriving into a crashed instance
        # (never acked).
        self._running = True
        # The transport hands this skeleton runs of deliveries (the backlog
        # it woke to, at most a prefetch window): their acks settle together.
        mom.consume(
            self.oid, None, consumer_tag=self._unicast_tag,
            prefetch=self.prefetch, batch_callback=self._on_deliveries,
        )
        self.broker._join_group(self)
        self._metrics_token = REGISTRY.register_source(
            "omq_instance",
            self.object_info,
            ObjectInfo.scrape,
            oid=self.oid,
            instance=self.instance_id,
        )

    def stop(self) -> None:
        """Graceful unbind: in-flight unacked messages are redelivered."""
        if not self._running:
            return
        self._running = False
        if self._metrics_token is not None:
            REGISTRY.unregister_source(self._metrics_token)
            self._metrics_token = None
        self.broker.mom.cancel(self.oid, self._unicast_tag)
        self.broker._leave_group(self)

    def kill(self) -> None:
        """Simulate a crash: identical to :meth:`stop` at the MOM level.

        Unacked deliveries flow back to the shared queue with
        ``redelivered=True`` — the fault-injection hook used by the
        Fig 8(f) experiment.
        """
        self.stop()

    # -- dispatch ------------------------------------------------------------------

    def _on_deliveries(self, deliveries) -> None:
        """Process a run of deliveries, then settle its acks at once.

        Each delivery is processed (and its reply sent) before its ack is
        issued, so a crash mid-run re-queues every message whose ack had
        not been settled yet — that can only widen the redelivery window,
        never lose a request.
        """
        processed = []
        for delivery in deliveries:
            if not self._running:
                # Crash window: this delivery and the rest of the run are
                # never processed and never acked, so they are requeued
                # when the consumer is cancelled.
                break
            self.invoke(delivery)
            processed.append(delivery)
        if processed:
            # Ack last: a crash before this point re-queues the requests.
            self.broker.mom.ack_many(processed)

    def invoke(self, delivery: Delivery, envelope: Any = None, reached: int = 0) -> None:
        """Run one request on this instance and reply if it asks.

        A unicast delivery is decoded here.  A multicast one comes with the
        *envelope* its Broker decoded for all its local instances, and with
        *reached*, how many they are; the reply carries that number, so a
        caller counting replies knows how many to expect from this Broker.
        A stopped instance does nothing: its caller sees it as crashed.
        """
        if not self._running:
            return
        error: str = ""
        result = None
        self.object_info.invocation_started()
        started = time.perf_counter()
        try:
            if envelope is None:
                envelope = self.broker.codec.decode(delivery.message.body)
            method_name = envelope["method"]
            method = None
            if not method_name.startswith("_"):  # never a dunder or a private helper
                method = getattr(self.target, method_name, None)
            if method is None or not callable(method):
                raise AttributeError(
                    f"{type(self.target).__name__} has no method {method_name!r}"
                )
            args = envelope.get("args", [])
            kwargs = envelope.get("kwargs", {})
            context = envelope.get("context") or {}
            for interceptor in self.interceptors:
                interceptor(method_name, args, kwargs, context)
            if TRACER.enabled:
                parent = TraceContext.from_wire(envelope.get(TRACE_KEY))
                headers = delivery.message.headers
                enqueued = headers.get(ENQUEUED_AT_KEY)
                dequeued = headers.get(DEQUEUED_AT_KEY)
                if parent is not None and enqueued is not None and dequeued is not None:
                    # Queue wait from the broker's own enqueue/dequeue
                    # stamps — the latency endpoint timers cannot see.
                    TRACER.record_span(
                        f"queue.wait:{delivery.queue_name}",
                        layer="queue",
                        start=enqueued,
                        end=dequeued,
                        parent=parent,
                        attrs={
                            "queue": delivery.queue_name,
                            "redelivered": delivery.message.redelivered,
                        },
                    )
                with TRACER.span(
                    f"skeleton.dispatch:{method_name}",
                    layer="skeleton",
                    parent=parent,
                    attrs={"oid": self.oid, "instance": self.instance_id},
                ):
                    result = method(*args, **kwargs)
            else:
                result = method(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - reported to caller, never fatal
            error = f"{type(exc).__name__}: {exc}"
            logger.debug("invocation failed on %s: %s", self.instance_id, error)
        service_time = time.perf_counter() - started
        self.object_info.invocation_finished(service_time, error=bool(error))

        # A reply address is what asks for a reply: only sync calls carry one.
        if isinstance(envelope, dict) and envelope.get("reply_to"):
            self._send_reply(envelope, result, error, reached)

    def _send_reply(self, envelope: dict, result: Any, error: str, reached: int) -> None:
        reply_to = envelope["reply_to"]
        reply = make_reply(
            correlation_id=envelope.get("correlation_id") or "",
            result=result if not error else None,
            error=error or None,
            responder=self.broker.client_id if reached else "",
            reached=reached,
        )
        body = self.broker.codec.encode(reply)
        message = Message(
            body=body,
            routing_key=reply_to,
            correlation_id=envelope.get("correlation_id"),
        )
        try:
            self.broker.mom.publish("", reply_to, message)
        except Exception:  # noqa: BLE001 - the caller may be gone; that is fine
            # A publish creates no queue: a caller that closed (typically
            # after its call timed out) took its reply queue with it, and
            # the reply is dropped.
            logger.debug("dropping reply for vanished queue %s", reply_to)
