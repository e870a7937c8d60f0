"""The contract between ObjectMQ and a message-oriented middleware.

The paper's ObjectMQ (§3, §3.4) leans on exactly three MOM guarantees —
work-queue balancing among the consumers of one queue, fanout multicast,
and at-least-once delivery with ack-after-invoke — and claims to be
MOM-agnostic.  :class:`MomTransport` declares exactly the calls ObjectMQ
(``Broker``, ``Skeleton``, ``Proxy``, ``Supervisor``) makes, and nothing
else, so that claim is a checkable one:
:class:`~repro.mom.broker_server.MessageBroker` satisfies it and passes
``tests/mom/test_transport_conformance.py``.  A new transport (a socket
client to a broker in another process, say) implements these members and
runs that suite.  The contract asks for no durability: a transport need
not survive its own crash, because the fault tolerance of §3.4 is a dead
consumer's messages going to a live one.

Declaration only: nothing checks it at run time, ObjectMQ never branches
on which transport it was given.  ``tests/mom/test_transport_seam.py``
keeps the list honest: it fails when ObjectMQ calls a member not declared
here, or when a member is declared that ObjectMQ no longer calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence

from repro.mom.message import Delivery, Message


class MomTransport(Protocol):
    """What ObjectMQ requires of the messaging system underneath it.

    One delivery model, store-and-forward and push only, which every
    implementation gives:

    * **queues exist only when declared**: :meth:`declare_queue` is the
      one call that creates a queue.  A publish never does, so a publish
      to a queue that was never declared, or was deleted, reaches nothing;
    * **one consumer per message**: a queue hands each message to one of
      its consumers, and only to one whose unacked count is below its
      prefetch window;
    * **fanout**: a message published to a fanout exchange reaches every
      queue bound to it at that moment;
    * **hold until settled**: an unacked delivery is held until it is
      acked or its consumer is cancelled, and goes to no other consumer
      meanwhile;
    * **at least once**: cancelling a consumer is the one requeue path.
      Its unacked deliveries go back to the head of their queue and are
      delivered again, flagged ``message.redelivered``, so a handler may
      see a message twice.  Acking an unknown or already settled delivery
      is a harmless no-op (there is no negative acknowledgement, no
      dead-letter queue and no expiry);
    * **order**: messages of one publisher to one queue are delivered in
      publish order, redeliveries excepted;
    * **auto-ack on the dispatching thread**: an ``auto_ack=True``
      handler has no thread of its own.  It runs on the thread whose call
      dispatched the delivery — for a message published while the
      consumer exists, the thread that called :meth:`publish` — and the
      delivery counts as settled once handed over.
    """

    # -- topology (all idempotent) --------------------------------------------

    def declare_queue(self, name: str, exclusive: bool = False) -> Any: ...

    def delete_queue(self, name: str) -> None: ...

    def declare_exchange(self, name: str, type_name: str = "direct") -> Any: ...

    def bind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None: ...

    def unbind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None: ...

    def exchange_has_bindings(self, name: str) -> bool:
        """True when exchange *name* exists and a publish to it would
        reach at least one queue (a missing exchange is a plain False)."""
        ...

    # -- publishing -----------------------------------------------------------

    def publish(self, exchange_name: str, routing_key: str, message: Message) -> int:
        """Route one message; returns the number of queues it reached.

        A publish reaches declared queues only.  The default exchange
        ``""`` routes to the declared queue named *routing_key*; any other
        exchange routes to the declared queues bound to it.  A publish
        that reaches no queue, on any exchange, raises
        :class:`~repro.errors.DeliveryError` and creates nothing.
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

        An *auto_ack* handler runs on the publishing thread, and so on two
        threads at once when two threads publish: it must be thread-safe
        and must not block; it may publish."""
        ...

    def cancel(self, queue_name: str, consumer_tag: str) -> None:
        """Unsubscribe; the consumer's unacked deliveries are redelivered."""
        ...

    # -- settling -------------------------------------------------------------

    def ack_many(self, deliveries: Sequence[Delivery]) -> int:
        """Settle a run of deliveries; returns how many were still live."""
        ...

    # -- introspection / lifecycle --------------------------------------------

    def queue_stats(self, name: str) -> Dict[str, int]:
        """Keys: ready, unacked, consumers, published, delivered, acked,
        redelivered."""
        ...

    def close(self) -> None: ...
