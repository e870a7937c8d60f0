"""Zero-copy payload handoff through broker → exchange → queue → consumer.

The unicast RPC hot path must deliver the publisher's message object (and
payload buffer) untouched; envelope copies happen only on true fanout,
and payload bytes are never copied.
"""

from __future__ import annotations

from repro.mom.broker_server import MessageBroker
from repro.mom.message import Message

from tests.mom.test_broker_server import drain
from tests.mom.test_queue import Collector, drain_wait


def test_single_queue_publish_hands_over_the_same_object():
    broker = MessageBroker()
    broker.declare_queue("q")
    payload = memoryview(b"chunk-bytes" * 64)
    message = Message(payload)
    broker.publish("", "q", message)
    (delivered,) = drain(broker, "q")
    # Same envelope, same buffer: no copy anywhere on the unicast path.
    assert delivered is message
    assert delivered.body is payload
    broker.close()


def test_push_mode_delivery_keeps_memoryview_body():
    broker = MessageBroker()
    broker.declare_queue("q")
    collector = Collector()
    broker.consume("q", collector, consumer_tag="c1", auto_ack=True)
    payload = memoryview(b"x" * 1024)
    broker.publish("", "q", Message(payload))
    assert drain_wait(lambda: collector.count() == 1)
    with collector.lock:
        body = collector.deliveries[0].message.body
    assert body is payload
    broker.close()


def test_fanout_copies_envelopes_but_shares_the_buffer():
    broker = MessageBroker()
    broker.declare_exchange("fan", "fanout")
    for name in ("q1", "q2", "q3"):
        broker.declare_queue(name)
        broker.bind_queue("fan", name)
    payload = memoryview(b"shared-payload")
    original = Message(payload)
    assert broker.publish("fan", "", original) == 3
    delivered = [m for name in ("q1", "q2", "q3") for m in drain(broker, name)]
    # One destination gets the original, the siblings fresh envelopes —
    # per-queue delivery state must be independent.
    assert sum(1 for m in delivered if m is original) == 1
    assert len({id(m) for m in delivered}) == 3
    # But every envelope rides the same underlying payload buffer.
    for m in delivered:
        assert m.body is payload
    broker.close()


def test_requeue_redelivers_the_same_message_object():
    broker = MessageBroker()
    broker.declare_queue("d")
    collector = Collector()  # holds the delivery unacked
    broker.consume("d", collector, consumer_tag="c1")
    message = Message(memoryview(b"commit"))
    broker.publish("", "d", message)
    assert drain_wait(lambda: collector.count() == 1)
    # Crash before acking: the same message object, payload buffer and
    # all, is requeued and flagged, and the survivor's ack settles it.
    broker.cancel("d", "c1")
    survivor = Collector()
    broker.consume("d", survivor, consumer_tag="c2")
    assert drain_wait(lambda: survivor.count() == 1)
    with survivor.lock:
        redelivery = survivor.deliveries[0]
    assert redelivery.message is message
    assert redelivery.message.redelivered
    assert broker.ack_many([redelivery]) == 1
    assert broker.queue_stats("d")["unacked"] == 0
    broker.close()
