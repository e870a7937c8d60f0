"""SQS-semantics message service + adapter for ObjectMQ.

The paper closes §3.4 noting that ObjectMQ's architecture "is generic so
that we could use other cloud scalable messaging services such as Amazon
SQS or Microsoft Service Bus".  This module substantiates that claim:

* :class:`SqsService` implements the Amazon SQS *model* — named queues,
  pull-based ``receive_message`` with **visibility timeout**, explicit
  ``delete_message`` (the ack), automatic reappearance of unacked
  messages, long polling, and approximate-count introspection.  There is
  no exchange concept and no push delivery, exactly like the real thing.
* :class:`SqsBrokerAdapter` implements the
  :class:`~repro.mom.transport.MomTransport` contract ObjectMQ is written
  against on top of an :class:`SqsService`: fanout exchanges become
  client-side lists of destination queues, push consumers become poller
  threads, acks become deletes.  The backend moves one message per call,
  so here — and only here — the run operations (``ack_many``,
  ``batch_callback``) are loops over the singular ones.

The adapter passes the same transport conformance suite as the AMQP-style
broker, demonstrating that the middleware is MOM-agnostic.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import BrokerClosed, DeliveryError, ExchangeNotFound, QueueNotFound
from repro.mom.broker_server import BrokerStats
from repro.mom.message import Delivery, Message

logger = logging.getLogger(__name__)

#: Default visibility timeout, seconds (SQS default is 30 s).
DEFAULT_VISIBILITY_TIMEOUT = 30.0


@dataclass(order=True)
class _InFlight:
    """A received-but-undeleted message, keyed by visibility deadline."""

    deadline: float
    receipt_handle: str = field(compare=False)
    message: Message = field(compare=False)


class SqsQueue:
    """One SQS queue: visible heap + in-flight set with visibility timeout."""

    def __init__(self, name: str, visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT):
        self.name = name
        self.visibility_timeout = visibility_timeout
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._visible: List = []  # heap of (enqueue_seq, Message)
        self._seq = itertools.count()
        self._in_flight: Dict[str, _InFlight] = {}
        self._receipt_counter = itertools.count(1)
        self.sent_count = 0
        self.deleted_count = 0
        self.reappeared_count = 0

    # -- producer ----------------------------------------------------------------

    def send(self, message: Message) -> None:
        with self._lock:
            heapq.heappush(self._visible, (next(self._seq), message))
            self.sent_count += 1
            self._not_empty.notify()

    # -- consumer -----------------------------------------------------------------

    def receive(
        self, wait_seconds: float = 0.0, visibility_timeout: Optional[float] = None
    ) -> Optional[tuple]:
        """Receive one message; returns (receipt_handle, message) or None.

        The message becomes invisible for the visibility timeout; unless
        deleted before the deadline it reappears for other consumers —
        SQS's at-least-once contract.
        """
        deadline = time.monotonic() + max(0.0, wait_seconds)
        with self._not_empty:
            while True:
                self._requeue_expired_locked()
                if self._visible:
                    _seq, message = heapq.heappop(self._visible)
                    timeout = (
                        self.visibility_timeout
                        if visibility_timeout is None
                        else visibility_timeout
                    )
                    handle = f"{self.name}-rh-{next(self._receipt_counter)}"
                    self._in_flight[handle] = _InFlight(
                        deadline=time.monotonic() + timeout,
                        receipt_handle=handle,
                        message=message,
                    )
                    return handle, message
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                # Wake up early enough to catch visibility expirations.
                next_expiry = min(
                    (f.deadline for f in self._in_flight.values()),
                    default=deadline,
                )
                self._not_empty.wait(
                    max(0.001, min(remaining, next_expiry - time.monotonic()))
                )

    def delete(self, receipt_handle: str) -> bool:
        """Acknowledge (delete) a received message."""
        with self._lock:
            entry = self._in_flight.pop(receipt_handle, None)
            if entry is not None:
                self.deleted_count += 1
                return True
            return False

    def change_visibility(self, receipt_handle: str, timeout: float) -> bool:
        """Extend or shrink a message's invisibility window (SQS API)."""
        with self._lock:
            entry = self._in_flight.get(receipt_handle)
            if entry is None:
                return False
            entry.deadline = time.monotonic() + max(0.0, timeout)
            self._not_empty.notify()
            return True

    def _requeue_expired_locked(self) -> None:
        now = time.monotonic()
        expired = [h for h, f in self._in_flight.items() if f.deadline <= now]
        for handle in expired:
            entry = self._in_flight.pop(handle)
            requeued = entry.message.copy_for_queue()
            requeued.redelivered = True
            heapq.heappush(self._visible, (next(self._seq), requeued))
            self.reappeared_count += 1
        if expired:
            self._not_empty.notify_all()

    # -- introspection ------------------------------------------------------------

    @property
    def approximate_visible(self) -> int:
        with self._lock:
            self._requeue_expired_locked()
            return len(self._visible)

    @property
    def approximate_in_flight(self) -> int:
        with self._lock:
            return len(self._in_flight)


class SqsService:
    """The queue service itself: create/delete/list/send/receive."""

    def __init__(self, visibility_timeout: float = DEFAULT_VISIBILITY_TIMEOUT):
        self.visibility_timeout = visibility_timeout
        self._lock = threading.Lock()
        self._queues: Dict[str, SqsQueue] = {}

    def create_queue(self, name: str) -> SqsQueue:
        with self._lock:
            queue = self._queues.get(name)
            if queue is None:
                queue = SqsQueue(name, visibility_timeout=self.visibility_timeout)
                self._queues[name] = queue
            return queue

    def delete_queue(self, name: str) -> None:
        with self._lock:
            self._queues.pop(name, None)

    def get_queue(self, name: str) -> SqsQueue:
        with self._lock:
            queue = self._queues.get(name)
        if queue is None:
            raise QueueNotFound(f"SQS queue {name!r} does not exist")
        return queue

    def queue_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._queues

    def list_queues(self) -> List[str]:
        with self._lock:
            return sorted(self._queues)


def _receipt_key(delivery: Delivery) -> tuple:
    # Delivery tags are per-poller, so the consumer tag is part of the key.
    return (delivery.queue_name, delivery.consumer_tag, delivery.delivery_tag)


class _Poller:
    """Background receive-loop emulating a push consumer over SQS."""

    def __init__(
        self,
        queue: SqsQueue,
        callback: Callable[[Delivery], None],
        consumer_tag: str,
        auto_ack: bool,
        adapter: "SqsBrokerAdapter",
    ):
        self.queue = queue
        self.callback = callback
        self.consumer_tag = consumer_tag
        self.auto_ack = auto_ack
        self.adapter = adapter
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"sqs-poller-{consumer_tag}", daemon=True
        )
        self._tag_counter = itertools.count(1)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout)

    def _run(self) -> None:
        while not self._stop.is_set():
            received = self.queue.receive(wait_seconds=0.1)
            if received is None:
                continue
            handle, message = received
            delivery_tag = next(self._tag_counter)
            delivery = Delivery(
                delivery_tag=delivery_tag,
                queue_name=self.queue.name,
                consumer_tag=self.consumer_tag,
                message=message,
            )
            self.adapter.register_receipt(delivery, handle)
            try:
                self.callback(delivery)
            except Exception:  # noqa: BLE001 - consumer bugs must not kill polling
                logger.exception(
                    "consumer %s raised while handling delivery", self.consumer_tag
                )
            if self.auto_ack:
                self.adapter.ack(delivery)


class SqsBrokerAdapter:
    """Presents the MessageBroker surface over an SqsService.

    Differences handled here so ObjectMQ needs no changes:

    * *fanout exchanges* — SQS has none; the adapter keeps a binding table
      and sends one copy per bound queue (what SNS→SQS fanout does);
    * *push consumers* — emulated with per-consumer poller threads;
    * *ack/nack* — mapped to ``delete_message`` / visibility reset.
    """

    def __init__(
        self,
        service: Optional[SqsService] = None,
        visibility_timeout: float = 5.0,
    ):
        self.service = service if service is not None else SqsService(
            visibility_timeout=visibility_timeout
        )
        self._lock = threading.Lock()
        self._fanouts: Dict[str, Set[str]] = {}
        self._pollers: Dict[tuple, _Poller] = {}
        # _receipt_key(delivery) -> receipt handle, for ack mapping.
        self._receipts: Dict[tuple, str] = {}
        self._closed = False
        self.stats = BrokerStats()

    # -- topology ------------------------------------------------------------------

    def declare_queue(self, name: str, durable: bool = False, exclusive: bool = False):
        self._check_open()
        return self.service.create_queue(name)

    def delete_queue(self, name: str) -> None:
        with self._lock:
            for queues in self._fanouts.values():
                queues.discard(name)
            pollers = [key for key in self._pollers if key[0] == name]
            for key in pollers:
                self._pollers.pop(key).stop()
            self._drop_receipts_locked(name)
        self.service.delete_queue(name)

    def declare_exchange(self, name: str, type_name: str = "direct"):
        self._check_open()
        if type_name == "fanout":
            with self._lock:
                self._fanouts.setdefault(name, set())
        # Direct exchanges other than the default are not needed by
        # ObjectMQ; the default exchange is implicit.
        return name

    def bind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None:
        with self._lock:
            if exchange_name not in self._fanouts:
                raise ExchangeNotFound(
                    f"exchange {exchange_name!r} has not been declared"
                )
            self._fanouts[exchange_name].add(queue_name)

    def unbind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None:
        with self._lock:
            queues = self._fanouts.get(exchange_name)
            if queues is not None:
                queues.discard(queue_name)

    def queue_exists(self, name: str) -> bool:
        return self.service.queue_exists(name)

    def exchange_has_bindings(self, name: str) -> bool:
        with self._lock:
            return bool(self._fanouts.get(name))

    # -- publish / consume ----------------------------------------------------------

    def publish(self, exchange_name: str, routing_key: str, message: Message) -> int:
        self._check_open()
        if exchange_name == "":
            self.service.create_queue(routing_key).send(message)
            self.stats.on_publish(1, message.size)
            return 1
        with self._lock:
            destinations = sorted(self._fanouts.get(exchange_name, ()))
        if exchange_name not in self._fanouts:
            raise ExchangeNotFound(f"exchange {exchange_name!r} has not been declared")
        routed = 0
        for queue_name in destinations:
            if not self.service.queue_exists(queue_name):
                continue
            copy = message.copy_for_queue() if routed else message
            self.service.get_queue(queue_name).send(copy)
            routed += 1
        self.stats.on_publish(routed, message.size)
        if routed == 0:
            raise DeliveryError(
                f"message with key {routing_key!r} matched no queue on "
                f"exchange {exchange_name!r}"
            )
        return routed

    def consume(
        self,
        queue_name: str,
        callback: Optional[Callable[[Delivery], None]],
        consumer_tag: str,
        prefetch: int = 1,
        auto_ack: bool = False,
        batch_callback: Optional[Callable[[List[Delivery]], None]] = None,
    ):
        self._check_open()
        queue = self.service.get_queue(queue_name)
        if batch_callback is not None:
            # SQS hands over one message per receive: every run is of one.
            callback = lambda delivery: batch_callback([delivery])  # noqa: E731
        poller = _Poller(queue, callback, consumer_tag, auto_ack, adapter=self)
        with self._lock:
            self._pollers[(queue_name, consumer_tag)] = poller
        return poller

    def cancel(self, queue_name: str, consumer_tag: str) -> None:
        with self._lock:
            poller = self._pollers.pop((queue_name, consumer_tag), None)
            # Unacked receipts of this consumer are forgotten: the
            # messages reappear after their visibility timeout — SQS's
            # (slower) analogue of AMQP's immediate requeue-on-cancel.
            self._drop_receipts_locked(queue_name, consumer_tag)
        if poller is not None:
            poller.stop()

    def get(self, queue_name: str, timeout: Optional[float] = None) -> Optional[Message]:
        queue = self.service.get_queue(queue_name)
        received = queue.receive(wait_seconds=timeout or 0.0)
        if received is None:
            return None
        handle, message = received
        queue.delete(handle)  # pull-mode auto-ack
        return message

    # -- acks ------------------------------------------------------------------------

    def register_receipt(self, delivery: Delivery, handle: str) -> None:
        with self._lock:
            self._receipts[_receipt_key(delivery)] = handle

    def _take_receipt(self, delivery: Delivery) -> Optional[Tuple[SqsQueue, str]]:
        """Pop *delivery*'s receipt; None once settled, forgotten or its
        queue is gone — settling it again is then a harmless no-op."""
        with self._lock:
            handle = self._receipts.pop(_receipt_key(delivery), None)
        if handle is None:
            return None
        try:
            return self.service.get_queue(delivery.queue_name), handle
        except QueueNotFound:
            return None

    def _drop_receipts_locked(
        self, queue_name: str, consumer_tag: Optional[str] = None
    ) -> None:
        """Forget the receipts of one consumer, or of a whole queue."""
        for key in [
            key
            for key in self._receipts
            if key[0] == queue_name and consumer_tag in (None, key[1])
        ]:
            del self._receipts[key]

    def ack(self, delivery: Delivery) -> bool:
        """Delete one received message; False when its receipt is gone."""
        taken = self._take_receipt(delivery)
        if taken is None or not taken[0].delete(taken[1]):
            return False
        self.stats.on_ack_many(1)
        return True

    def ack_many(self, deliveries: Sequence[Delivery]) -> int:
        return sum(1 for delivery in deliveries if self.ack(delivery))

    def nack(self, delivery: Delivery, requeue: bool = True) -> None:
        taken = self._take_receipt(delivery)
        if taken is None:
            return
        queue, handle = taken
        if requeue:
            queue.change_visibility(handle, 0.0)  # reappear immediately
        else:
            queue.delete(handle)

    # -- introspection ------------------------------------------------------------------

    def queue_depth(self, name: str) -> int:
        return self.service.get_queue(name).approximate_visible

    def queue_stats(self, name: str) -> Dict[str, int]:
        queue = self.service.get_queue(name)
        return {
            "ready": queue.approximate_visible,
            "unacked": queue.approximate_in_flight,
            "consumers": sum(1 for key in self._pollers if key[0] == name),
            "published": queue.sent_count,
            "delivered": queue.sent_count - queue.approximate_visible,
            "acked": queue.deleted_count,
            "redelivered": queue.reappeared_count,
        }

    # -- lifecycle -------------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pollers = list(self._pollers.values())
            self._pollers.clear()
        for poller in pollers:
            poller.stop()
        for poller in pollers:
            poller.join(timeout=1.0)

    def _check_open(self) -> None:
        if self._closed:
            raise BrokerClosed("SQS adapter is closed")
