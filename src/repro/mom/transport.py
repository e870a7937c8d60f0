"""The contract between ObjectMQ and a message-oriented middleware.

The paper's ObjectMQ (§3, §3.4) leans on exactly three MOM guarantees —
work-queue balancing among the consumers of one queue, fanout multicast,
and at-least-once delivery with ack-after-invoke — and claims to be
MOM-agnostic.  :class:`MomTransport` lists every call ObjectMQ
(``Broker``, ``Skeleton``, ``Proxy``) makes, so that claim is a
checkable one: :class:`~repro.mom.broker_server.MessageBroker`,
:class:`~repro.mom.cluster.BrokerCluster` and
:class:`~repro.mom.sqs.SqsBrokerAdapter` all satisfy it and all pass
``tests/mom/test_transport_conformance.py``.  A new transport (a socket
client to a broker in another process, say) implements these members and
runs that suite.

Declaration only: nothing checks it at run time, ObjectMQ never branches
on which transport it was given.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from repro.mom.message import Delivery, Message


class MomTransport(Protocol):
    """What ObjectMQ requires of the messaging system underneath it.

    Delivery guarantees every implementation gives:

    * a queue hands each message to **one** of its consumers, and to one
      whose unacked count is below its prefetch window where the backend
      has push delivery;
    * a message published to a fanout exchange reaches **every** queue
      bound to it at that moment;
    * a delivery that is never acked — its consumer was cancelled, or it
      was nacked with ``requeue=True`` — is delivered again, flagged
      ``message.redelivered``; acking an unknown or already settled
      delivery is a harmless no-op;
    * while its consumer lives, an unacked delivery goes to no other
      consumer: the supervisor lease (:mod:`repro.objectmq.ha`) is held
      this way.  ``SqsBrokerAdapter`` keeps the promise only for its
      visibility timeout, after which the message is visible again;
    * messages of one publisher to one queue are delivered in publish
      order (redeliveries excepted).
    """

    # -- topology (all idempotent) --------------------------------------------

    def declare_queue(self, name: str, durable: bool = False, exclusive: bool = False) -> Any: ...

    def delete_queue(self, name: str) -> None: ...

    def declare_exchange(self, name: str, type_name: str = "direct") -> Any: ...

    def bind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None: ...

    def unbind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None: ...

    def queue_exists(self, name: str) -> bool: ...

    def exchange_has_bindings(self, name: str) -> bool:
        """True when exchange *name* exists and a publish to it would
        reach at least one queue (a missing exchange is a plain False)."""
        ...

    # -- publishing -----------------------------------------------------------

    def publish(self, exchange_name: str, routing_key: str, message: Message) -> int:
        """Route one message; returns the number of queues it reached.

        The default exchange ``""`` routes to the queue named
        *routing_key*, declaring it if need be.  Any other exchange that
        matches no queue raises :class:`~repro.errors.DeliveryError`.
        """
        ...

    # -- consuming ------------------------------------------------------------

    def consume(
        self,
        queue_name: str,
        callback: Optional[Callable[[Delivery], None]],
        consumer_tag: str,
        prefetch: int = 1,
        auto_ack: bool = False,
        batch_callback: Optional[Callable[[List[Delivery]], None]] = None,
    ) -> Any:
        """Subscribe one handler: *batch_callback*, when given, receives
        each run of deliveries as a list and *callback* is not used;
        otherwise *callback* receives them one at a time.

        An *auto_ack* handler may run on the publishing thread, and on two
        threads at once, so it must be thread-safe and must not block;
        it may publish.  (``MessageBroker`` runs it on the publisher's
        thread; ``SqsBrokerAdapter`` on a poller thread, which the
        contract also allows.)"""
        ...

    def cancel(self, queue_name: str, consumer_tag: str) -> None:
        """Unsubscribe; the consumer's unacked deliveries are redelivered."""
        ...

    def get(self, queue_name: str, timeout: Optional[float] = None) -> Optional[Message]:
        """Pull one message (auto-acked), or None after *timeout* seconds."""
        ...

    # -- settling -------------------------------------------------------------

    def ack(self, delivery: Delivery) -> bool: ...

    def ack_many(self, deliveries: Sequence[Delivery]) -> int:
        """Settle a run of deliveries; returns how many were still live."""
        ...

    def nack(self, delivery: Delivery, requeue: bool = True) -> None: ...

    # -- introspection / lifecycle --------------------------------------------

    def queue_depth(self, name: str) -> int: ...

    def queue_stats(self, name: str) -> Dict[str, int]:
        """Keys: ready, unacked, consumers, published, delivered, acked,
        redelivered."""
        ...

    def close(self) -> None: ...
