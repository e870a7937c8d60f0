"""Message envelope used by the AMQP-like broker.

A :class:`Message` carries an opaque byte payload plus a small set of
AMQP-style properties (routing key, reply-to queue, correlation id,
headers, delivery mode).  The broker never inspects the payload; codecs
live one layer up, in :mod:`repro.serialization`.

Payloads may be ``bytes`` or ``memoryview``: a memoryview-backed body
travels through exchange → queue → consumer without the broker ever
materializing a private copy, so a chunk-sized payload delivered to one
queue is handed over zero-copy.  Only two paths force bytes: the durable
message store (:meth:`Message.materialize`, the journal needs a stable
snapshot) and true fanout (each destination queue gets its own
:class:`Message` envelope — though even then the *buffer* is shared,
because payload bytes are immutable by contract).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

#: Delivery mode constants mirroring AMQP basic.properties.delivery-mode.
TRANSIENT = 1
PERSISTENT = 2

_message_ids = itertools.count(1)


def _next_message_id() -> int:
    # next() on an itertools.count is atomic under CPython — no lock on
    # this per-message hot path.
    return next(_message_ids)


@dataclass
class Message:
    """An immutable-by-convention broker message.

    Attributes:
        body: Opaque payload — ``bytes`` or a ``memoryview`` over caller
            memory (zero-copy handoff; the caller must not mutate the
            underlying buffer after publishing).
        routing_key: Key used by exchanges to select destination queues.
        reply_to: Name of the queue where a reply should be published.
        correlation_id: Opaque id used to pair requests with replies.
        headers: Free-form application headers.
        delivery_mode: TRANSIENT (lost on broker restart) or PERSISTENT.
        message_id: Unique id assigned at construction time.
        redelivered: True when the broker re-queued this message after a
            consumer died without acking it.
    """

    body: Union[bytes, memoryview]
    routing_key: str = ""
    reply_to: Optional[str] = None
    correlation_id: Optional[str] = None
    headers: Dict[str, Any] = field(default_factory=dict)
    delivery_mode: int = TRANSIENT
    message_id: int = field(default_factory=_next_message_id)
    redelivered: bool = False

    def copy_for_queue(self) -> "Message":
        """Return an independent envelope, used when fanning out to many queues.

        Each destination queue must track its own delivery state (acks,
        redelivery flag, broker timestamps in ``headers``), so fanout
        publishes one envelope per queue.  The payload *buffer* is shared,
        not copied — bodies are immutable by contract.
        """
        return Message(
            body=self.body,
            routing_key=self.routing_key,
            reply_to=self.reply_to,
            correlation_id=self.correlation_id,
            headers=dict(self.headers),
            delivery_mode=self.delivery_mode,
        )

    def materialize(self) -> bytes:
        """Force the payload to ``bytes`` in place and return it.

        The durable message store journals payloads and must therefore
        hold a stable snapshot even if the publisher recycles the buffer
        behind a memoryview.  Already-bytes bodies are returned as-is, so
        the common path stays copy-free.
        """
        if not isinstance(self.body, bytes):
            self.body = bytes(self.body)
        return self.body


@dataclass(frozen=True)
class Delivery:
    """A message handed to a specific consumer, awaiting ack (or requeue on cancel).

    The broker tracks deliveries per consumer so that, if the consumer is
    cancelled or crashes, unacked messages are re-queued — this is the
    at-least-once guarantee ObjectMQ's fault tolerance (paper §3.4) relies
    on.
    """

    delivery_tag: int
    queue_name: str
    consumer_tag: str
    message: Message
