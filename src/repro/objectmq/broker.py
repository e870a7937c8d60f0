"""The ObjectMQ Broker: ``bind`` / ``lookup`` over a MOM system (§3.1).

This is the ``omq.Broker`` of the paper.  It connects to a message broker
— anything that satisfies :class:`repro.mom.transport.MomTransport`, such
as :class:`repro.mom.MessageBroker` — and exposes two primitives:

* :meth:`Broker.bind(oid, remote_object)` — bind an object instance under
  the identifier *oid*.  Creates (idempotently) the shared unicast queue
  named ``oid`` and a fanout exchange ``oid.multi`` for multicast.  Binding
  several objects under one *oid* yields transparent load balancing: the
  MOM delivers each unicast RPC to the first idle instance.

* :meth:`Broker.lookup(oid, interface)` — return a dynamic client stub
  (:class:`~repro.objectmq.proxy.Proxy`) for a @remote_interface class.
  No registry lookup happens; knowing the queue name is enough.

There is no stub compilation step and no client-side server list: scaling
the server pool up or down never touches clients.

Multicast is per connection, not per instance (Fig 1): a Broker's first
``bind`` declares one private multicast queue, bound to ``oid.multi`` while
it hosts an instance of *oid*, and one consumer thread runs it.  Each
delivery is decoded once and invoked on every local instance of the oid
in bind order, one after another, then acked: a notification crosses the
MOM once per receiving Broker however many listeners it hosts.
"""

from __future__ import annotations

import logging
import threading
import uuid
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import BindingError, ObjectMqError
from repro.mom.message import Delivery
from repro.mom.transport import MomTransport
from repro.objectmq.annotations import interface_specs
from repro.objectmq.naming import (
    multi_exchange_name, multicast_queue_name, response_queue_name,
)
from repro.objectmq.proxy import Proxy
from repro.objectmq.skeleton import Skeleton
from repro.serialization import Serializer, make_serializer

logger = logging.getLogger(__name__)

#: Multicast deliveries a Broker's dispatch thread may hold unacked: deep
#: enough that a closed loop of 16 commits in flight never waits on it.
MULTICAST_WINDOW = 64


class _ReplyRouter:
    """Demultiplexes replies arriving on this broker's response queue.

    Every Broker (client side) owns exactly one response queue — "every
    stub has its own queue to receive responses" in the paper maps to one
    queue per connected Broker, shared by all its proxies and keyed by
    correlation id.  It consumes with ``auto_ack``, so on a
    ``MessageBroker`` :meth:`on_delivery` runs on the replying skeleton's
    thread: it decodes, finds the waiter under a short lock and wakes it,
    never blocking.
    """

    def __init__(self, codec: Serializer):
        self._codec = codec
        self._lock = threading.Lock()
        self._waiters: Dict[str, "_Waiter"] = {}

    def register(self, correlation_id: str) -> "_Waiter":
        waiter = _Waiter()
        with self._lock:
            self._waiters[correlation_id] = waiter
        return waiter

    def unregister(self, correlation_id: str) -> None:
        with self._lock:
            self._waiters.pop(correlation_id, None)

    def on_delivery(self, delivery: Delivery) -> None:
        try:
            envelope = self._codec.decode(delivery.message.body)
        except ObjectMqError:
            logger.warning("dropping undecodable reply on %s", delivery.queue_name)
            return
        correlation_id = envelope.get("correlation_id")
        with self._lock:
            waiter = self._waiters.get(correlation_id)
        if waiter is None:
            # A reply for a call that already timed out / completed: stale
            # retries make this normal, not an error.
            logger.debug("dropping stale reply %s", correlation_id)
            return
        waiter.put(envelope)


class _Waiter:
    """A blocking mailbox collecting reply envelopes for one call."""

    def __init__(self) -> None:
        self._ready = threading.Condition(threading.Lock())
        self._replies: list = []

    def put(self, envelope: dict) -> None:
        with self._ready:
            self._replies.append(envelope)
            self._ready.notify_all()

    def take(self, timeout: float) -> Optional[dict]:
        """Wait up to *timeout* seconds for the next reply."""
        with self._ready:
            if not self._replies:
                self._ready.wait(timeout)
            if self._replies:
                return self._replies.pop(0)
            return None


class Broker:
    """ObjectMQ entry point: one connection to the MOM system.

    Args:
        mom: The :class:`~repro.mom.transport.MomTransport` to
            communicate through.
        environment: Optional configuration; the recognised keys are
            ``codec`` (``"pickle"`` | ``"json"`` | ``"binary"``, default
            pickle) and ``client_id`` (stable id for the response queue).
            Any other key raises :class:`~repro.errors.ObjectMqError`.
    """

    def __init__(
        self, mom: MomTransport, environment: Optional[Dict[str, Any]] = None
    ):
        environment = dict(environment or {})
        for key in environment:
            if key not in ("codec", "client_id"):
                raise ObjectMqError(f"unknown Broker environment key {key!r}")
        self.mom = mom
        self.client_id: str = environment.get("client_id") or uuid.uuid4().hex[:12]
        self.codec: Serializer = make_serializer(environment.get("codec", "pickle"))
        self._lock = threading.Lock()
        self._skeletons: Dict[str, Skeleton] = {}
        # oid -> its local instances in bind order; replaced, never mutated,
        # so the dispatch thread reads it without the lock.
        self._groups: Dict[str, Tuple[Skeleton, ...]] = {}
        self.multicast_queue_name = multicast_queue_name(self.client_id)
        self._multicast_declared = False
        self._closed = False
        # Call context: headers attached to every outgoing request from
        # this Broker's proxies (auth tokens, tracing ids, ...).  Server
        # skeletons hand it to their interceptors.
        self.call_context: Dict[str, Any] = {}

        self.response_queue_name = response_queue_name(self.client_id)
        self.mom.declare_queue(self.response_queue_name, exclusive=True)
        self._reply_router = _ReplyRouter(self.codec)
        self._reply_consumer_tag = f"replies.{self.client_id}"
        self.mom.consume(
            self.response_queue_name,
            self._reply_router.on_delivery,
            consumer_tag=self._reply_consumer_tag,
            auto_ack=True,
        )

    # -- server side ------------------------------------------------------------

    def bind(
        self, oid: str, remote_object: Any, prefetch: int = 1, interceptors=None
    ) -> Skeleton:
        """Bind *remote_object* under *oid* and start serving RPCs.

        Returns the :class:`Skeleton` handle, whose ``instance_id``
        identifies this particular instance (for shutdown and
        introspection) and whose ``object_info`` exposes live statistics.

        *interceptors* is an optional list of callables
        ``(method, args, kwargs, context) -> None`` executed before every
        invocation; raising aborts the call and reports the error to the
        caller (sync) or drops it (async).  This is the hook the security
        services plug into (:mod:`repro.sync.auth`).
        """
        if remote_object is None:
            raise BindingError("cannot bind None")
        self._check_open()
        skeleton = Skeleton(
            broker=self,
            oid=oid,
            target=remote_object,
            prefetch=prefetch,
            interceptors=interceptors,
        )
        with self._lock:
            self._skeletons[skeleton.instance_id] = skeleton
        skeleton.start()
        return skeleton

    def unbind(self, skeleton: Skeleton) -> None:
        """Gracefully remove one bound instance."""
        with self._lock:
            self._skeletons.pop(skeleton.instance_id, None)
        skeleton.stop()

    # -- client side -------------------------------------------------------------

    def lookup(self, oid: str, interface: Type) -> Any:
        """Return a dynamic proxy implementing *interface* against *oid*.

        The interface must be decorated with
        :func:`~repro.objectmq.annotations.remote_interface`; validation
        happens here so misuse fails at lookup time, not call time.
        """
        self._check_open()
        specs = interface_specs(interface)
        self.mom.declare_queue(oid)  # as bind does: a cast made before any bind waits in it
        return Proxy(broker=self, oid=oid, specs=specs, interface_name=interface.__name__)

    def lookup_sharded(self, oid: str, interface: Type, shards: int, route_arg: int = 0):
        """Proxy for a partitioned oid: calls route by their first argument.

        Returns a :class:`~repro.objectmq.sharding.ShardedProxy` covering
        ``oid.shard.0`` … ``oid.shard.{shards-1}``.  ``shards=1`` is a
        valid degenerate deployment (one partition, same semantics).
        """
        from repro.objectmq.sharding import ShardedProxy

        self._check_open()
        return ShardedProxy(self, oid, interface, shards, route_arg=route_arg)

    # -- plumbing shared with Proxy/Skeleton ------------------------------------------

    def register_waiter(self, correlation_id: str) -> _Waiter:
        return self._reply_router.register(correlation_id)

    def unregister_waiter(self, correlation_id: str) -> None:
        self._reply_router.unregister(correlation_id)

    def multicast_has_listeners(self, oid: str) -> bool:
        """True when at least one instance is bound to *oid*'s fanout.

        Probing a missing exchange is a plain negative (no declaration,
        no proxy construction), so a server can skip notification
        plumbing for quiet oids entirely.
        Racing a concurrent bind is benign — identical to publishing
        just before it.
        """
        return self.mom.exchange_has_bindings(multi_exchange_name(oid))

    # -- multicast: one queue and one dispatch thread per Broker -----------------

    def _join_group(self, skeleton: Skeleton) -> None:
        """Add a started instance to its oid's multicast group.

        The first instance of the Broker declares its multicast queue and
        subscribes the dispatch consumer; the first of an oid binds that
        queue to the oid's fanout.
        """
        oid = skeleton.oid
        with self._lock:
            if not self._multicast_declared:
                self.mom.declare_queue(self.multicast_queue_name, exclusive=True)
                self.mom.consume(
                    self.multicast_queue_name, None,
                    consumer_tag=self.multicast_queue_name,
                    prefetch=MULTICAST_WINDOW, batch_callback=self._on_multicasts,
                )
                self._multicast_declared = True
            group = self._groups.get(oid, ())
            if not group:
                exchange = multi_exchange_name(oid)
                self.mom.declare_exchange(exchange, "fanout")
                self.mom.bind_queue(exchange, self.multicast_queue_name)
            self._groups[oid] = group + (skeleton,)

    def _leave_group(self, skeleton: Skeleton) -> None:
        """Drop a stopped instance; the last of an oid unbinds the fanout."""
        oid = skeleton.oid
        with self._lock:
            group = self._groups.get(oid, ())
            if skeleton not in group:
                return
            rest = tuple(member for member in group if member is not skeleton)
            if rest:
                self._groups[oid] = rest
                return
            del self._groups[oid]
            self.mom.unbind_queue(multi_exchange_name(oid), self.multicast_queue_name)

    def _on_multicasts(self, deliveries: List[Delivery]) -> None:
        """Run each delivery on every local instance of its oid, then ack.

        The proxy publishes a multicast with the oid as routing key.  Each
        body is decoded once and every instance gets the same envelope, so
        its arguments are shared and must be treated as read-only.  The
        run is acked only after every instance has returned: at least once
        per instance, as with a queue of its own.
        """
        for delivery in deliveries:
            group = self._groups.get(delivery.message.routing_key)
            if not group:
                continue  # the last instance left after the publish
            try:
                envelope = self.codec.decode(delivery.message.body)
            except Exception as exc:  # noqa: BLE001 - a body from outside; the run must be acked
                logger.warning("dropping undecodable multicast on %s: %s", delivery.queue_name, exc)
                continue
            for skeleton in group:
                skeleton.invoke(delivery, envelope, len(group))
        self.mom.ack_many(deliveries)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            skeletons = list(self._skeletons.values())
            self._skeletons.clear()
        for skeleton in skeletons:
            skeleton.stop()
        try:
            if self._multicast_declared:
                self.mom.cancel(self.multicast_queue_name, self.multicast_queue_name)
                self.mom.delete_queue(self.multicast_queue_name)
            self.mom.cancel(self.response_queue_name, self._reply_consumer_tag)
            self.mom.delete_queue(self.response_queue_name)
        except ObjectMqError:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ObjectMqError(f"Broker {self.client_id} is closed")
