"""The message broker: the in-process stand-in for RabbitMQ.

:class:`MessageBroker` owns named queues and exchanges and exposes the
narrow AMQP-shaped surface ObjectMQ needs:

* ``declare_queue`` / ``delete_queue`` / ``declare_exchange``
* ``bind_queue(exchange, queue, key)``
* ``publish(exchange, routing_key, message)``
* ``consume`` / ``cancel``
* ``ack_many``

That surface is written down as :class:`repro.mom.transport.MomTransport`.
A publish is one message, and it reaches only queues that were declared:
only ``declare_queue`` creates a queue, as in AMQP.  Delivery is push
only, and settling is one call that acks a run of deliveries; a
cancelled consumer's unacked deliveries are the only ones requeued.

It implements the one reliability behaviour the paper leans on
(§3.4): unacked messages are redelivered when a consumer is cancelled
(:meth:`MessageQueue.cancel_consumer`).  The broker itself keeps no
journal and does not survive its own crash; no paper figure crashes it.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import BrokerClosed, DeliveryError, ExchangeNotFound, QueueNotFound
from repro.mom.exchange import EXCHANGE_TYPES, DirectExchange, Exchange
from repro.mom.message import Delivery, Message
from repro.mom.queue import Consumer, MessageQueue
from repro.telemetry.registry import REGISTRY

#: Name of the implicit default exchange (direct; routing key == queue name).
DEFAULT_EXCHANGE = ""

_DELIVERY_TAG = attrgetter("delivery_tag")


class BrokerStats:
    """Aggregate counters exposed for provisioners and tests."""

    def __init__(self) -> None:
        # Taken on every publish/ack — the second-hottest lock in the
        # broker after the queue lock.
        self._lock = threading.Lock()
        self.publishes = 0
        self.deliveries = 0
        self.acks = 0
        self.bytes_published = 0

    def on_publish(self, queue_count: int, payload_bytes: int) -> None:
        """Record one publish of *payload_bytes* that reached *queue_count* queues."""
        with self._lock:
            self.publishes += 1
            self.deliveries += queue_count
            self.bytes_published += payload_bytes * max(1, queue_count)

    def on_ack_many(self, count: int) -> None:
        """Record *count* acks under one stats-lock acquisition."""
        with self._lock:
            self.acks += count

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "publishes": self.publishes,
                "deliveries": self.deliveries,
                "acks": self.acks,
                "bytes_published": self.bytes_published,
            }


class MessageBroker:
    """An AMQP-semantics message broker running inside the process."""

    def __init__(self, name: str = "broker"):
        self.name = name
        self._lock = threading.Lock()
        self._queues: Dict[str, MessageQueue] = {}
        self._exchanges: Dict[str, Exchange] = {DEFAULT_EXCHANGE: DirectExchange("")}
        # queue name -> exchanges it was bound to (a superset: an unbind
        # under one key may leave others), so deleting a queue visits only
        # those, not every exchange.
        self._bound_to: Dict[str, Set[str]] = {}
        self._closed = False
        self.stats = BrokerStats()
        # Scrape-time wiring into the unified registry: evaluated only on
        # snapshot, weakly held, so the publish hot path is untouched.
        self._source_token = REGISTRY.register_source(
            "mom_broker", self, MessageBroker._scrape, broker=name
        )

    def _scrape(self) -> Dict[str, float]:
        """Registry source: the traffic counters, and ``up`` until closed."""
        return {**self.stats.snapshot(), "up": float(not self._closed)}

    # -- topology -------------------------------------------------------------

    def declare_queue(self, name: str, exclusive: bool = False) -> MessageQueue:
        """Declare (idempotently) and return the queue called *name*."""
        self._check_open()
        with self._lock:
            queue = self._queues.get(name)
            if queue is None:
                queue = MessageQueue(name, exclusive=exclusive)
                self._queues[name] = queue
            return queue

    def delete_queue(self, name: str) -> None:
        with self._lock:
            queue = self._queues.pop(name, None)
            for exchange_name in self._bound_to.pop(name, ()):
                exchange = self._exchanges.get(exchange_name)
                if exchange is not None:
                    exchange.unbind_queue_everywhere(name)
        if queue is not None:
            queue.close()

    def declare_exchange(self, name: str, type_name: str = "direct") -> Exchange:
        self._check_open()
        if type_name not in EXCHANGE_TYPES:
            raise ExchangeNotFound(f"unknown exchange type {type_name!r}")
        with self._lock:
            exchange = self._exchanges.get(name)
            if exchange is None:
                exchange = EXCHANGE_TYPES[type_name](name)
                self._exchanges[name] = exchange
            return exchange

    def bind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None:
        with self._lock:
            exchange = self._exchanges.get(exchange_name)
            if exchange is None:
                raise ExchangeNotFound(f"exchange {exchange_name!r} has not been declared")
            if queue_name not in self._queues:
                raise QueueNotFound(f"queue {queue_name!r} has not been declared")
            exchange.bind(queue_name, binding_key)
            self._bound_to.setdefault(queue_name, set()).add(exchange_name)

    def unbind_queue(self, exchange_name: str, queue_name: str, binding_key: str = "") -> None:
        exchange = self._get_exchange(exchange_name)
        exchange.unbind(queue_name, binding_key)

    def exchange_has_bindings(self, name: str) -> bool:
        """True when exchange *name* exists and has at least one binding.

        Publishers use this to skip serializing multicasts that would
        route nowhere (an empty group is a no-op by contract); racing a
        concurrent bind is benign — the same message could equally have
        been published just before the bind.  Lock-free on purpose: this
        probe runs once per commit on the notification hot path, and a
        bare dict read is atomic under CPython.
        """
        exchange = self._exchanges.get(name)
        return exchange is not None and exchange.has_bindings()

    def queue_names(self) -> List[str]:
        with self._lock:
            return sorted(self._queues)

    # -- publish / consume ------------------------------------------------------

    def publish(
        self, exchange_name: str, routing_key: str, message: Message
    ) -> int:
        """Route *message* and return the number of queues it reached.

        A publish reaches declared queues only: the default exchange
        routes to the queue named exactly like the routing key, if it has
        been declared, and any other exchange to its bound queues.  A
        publish that reaches no queue raises :class:`DeliveryError` and
        creates nothing.

        Zero-copy contract: delivered to a single queue (the unicast RPC
        hot path), the message object — and therefore its payload buffer,
        which may be a ``memoryview`` — is handed through untouched.
        Fanout siblings get envelope copies (per-queue delivery state),
        taken before anything is enqueued so no consumer has touched the
        original yet.
        """
        if self._closed:
            raise BrokerClosed(f"broker {self.name!r} is closed")
        with self._lock:
            if exchange_name == DEFAULT_EXCHANGE:
                queue = self._queues.get(routing_key)
                queues = [] if queue is None else [queue]
            else:
                exchange = self._exchanges.get(exchange_name)
                if exchange is None:
                    raise ExchangeNotFound(f"exchange {exchange_name!r} has not been declared")
                queues = [
                    queue
                    for queue in map(self._queues.get, exchange.route(routing_key))
                    if queue is not None
                ]
        copies = [message]
        while len(copies) < len(queues):
            copies.append(message.copy_for_queue())
        for queue, copy in zip(queues, copies):
            queue.put_many((copy,))
        self.stats.on_publish(len(queues), len(message.body))
        if not queues:
            raise DeliveryError(
                f"message with key {routing_key!r} matched no queue on "
                f"exchange {exchange_name!r}"
            )
        return len(queues)

    def consume(
        self,
        queue_name: str,
        callback: Optional[Callable[[Delivery], None]],
        consumer_tag: str,
        prefetch: int = 1,
        auto_ack: bool = False,
        batch_callback: Optional[Callable[[List[Delivery]], None]] = None,
    ) -> Consumer:
        self._check_open()
        queue = self._get_queue(queue_name)
        return queue.add_consumer(
            consumer_tag,
            callback,
            prefetch=prefetch,
            auto_ack=auto_ack,
            batch_callback=batch_callback,
        )

    def cancel(self, queue_name: str, consumer_tag: str) -> None:
        queue = self._find_queue(queue_name)
        if queue is not None:
            queue.cancel_consumer(consumer_tag)

    def ack_many(self, deliveries: Iterable[Delivery]) -> int:
        """Acknowledge a run of deliveries; returns how many were acked.

        Consecutive deliveries of one queue — a consumer's whole prefetch
        window, in practice — are settled together by :meth:`_ack_run`.
        """
        total = 0
        run: List[Delivery] = []
        for delivery in deliveries:
            if run and delivery.queue_name != run[0].queue_name:
                total += self._ack_run(run)
                run = []
            run.append(delivery)
        if run:
            total += self._ack_run(run)
        return total

    def _ack_run(self, run: Sequence[Delivery]) -> int:
        """Settle deliveries of one queue: one queue-lock cycle and one
        stats update.  Unknown tags (requeued by a crash, or acked twice)
        are skipped."""
        queue = self._find_queue(run[0].queue_name)
        if queue is None:
            return 0
        acked = len(queue.ack_many(map(_DELIVERY_TAG, run)))
        if acked:
            self.stats.on_ack_many(acked)
        return acked

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queues = list(self._queues.values())
            self._queues.clear()
        for queue in queues:
            queue.close()
        # A deliberately closed broker is decommissioned, not down: left
        # registered it would fail /health for as long as anything still
        # references it (a reference cycle can hold it until a gc pass).
        REGISTRY.unregister_source(self._source_token)

    # -- helpers --------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise BrokerClosed(f"broker {self.name!r} is closed")

    def _find_queue(self, name: str) -> Optional[MessageQueue]:
        with self._lock:
            return self._queues.get(name)

    def _get_queue(self, name: str) -> MessageQueue:
        queue = self._find_queue(name)
        if queue is None:
            raise QueueNotFound(f"queue {name!r} has not been declared")
        return queue

    def _get_exchange(self, name: str) -> Exchange:
        with self._lock:
            exchange = self._exchanges.get(name)
        if exchange is None:
            raise ExchangeNotFound(f"exchange {name!r} has not been declared")
        return exchange

    def queue_stats(self, name: str) -> Dict[str, int]:
        queue = self._get_queue(name)
        return {
            "ready": len(queue),
            "unacked": queue.unacked_count,
            "consumers": queue.consumer_count,
            "published": queue.published_count,
            "delivered": queue.delivered_count,
            "acked": queue.acked_count,
            "redelivered": queue.redelivered_count,
        }
