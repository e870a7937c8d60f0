"""Message envelope used by the AMQP-like broker.

A :class:`Message` carries an opaque byte payload plus a small set of
AMQP-style properties (routing key, reply-to queue, correlation id,
headers).  The broker never inspects the payload; codecs live one layer
up, in :mod:`repro.serialization`.

Payloads may be ``bytes`` or ``memoryview``: a memoryview-backed body
travels through exchange → queue → consumer without the broker ever
materializing a private copy, so a chunk-sized payload delivered to one
queue is handed over zero-copy.  Fanout is the only path that makes a
new envelope: each destination queue gets its own :class:`Message`, but
even then the *buffer* is shared, because payload bytes are immutable by
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union


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
        redelivered: True when the broker re-queued this message after a
            consumer died without acking it.
    """

    body: Union[bytes, memoryview]
    routing_key: str = ""
    reply_to: Optional[str] = None
    correlation_id: Optional[str] = None
    headers: Dict[str, Any] = field(default_factory=dict)
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
        )


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
