"""Unit tests for the durable message store."""

from __future__ import annotations

from repro.mom.message import Message, PERSISTENT, TRANSIENT
from repro.mom.persistence import InMemoryMessageStore


def test_transient_messages_not_journalled():
    store = InMemoryMessageStore()
    store.record_publish("q", Message(b"x", delivery_mode=TRANSIENT))
    assert len(store) == 0


def test_persistent_publish_then_ack_clears():
    store = InMemoryMessageStore()
    message = Message(b"x", delivery_mode=PERSISTENT)
    store.record_publish("q", message)
    assert len(store) == 1
    store.record_ack_many("q", [message])
    assert len(store) == 0


def test_pending_for_returns_copies_in_order():
    store = InMemoryMessageStore()
    first = Message(b"1", delivery_mode=PERSISTENT)
    second = Message(b"2", delivery_mode=PERSISTENT)
    store.record_publish("q", first)
    store.record_publish("q", second)
    pending = store.pending_for("q")
    assert [m.body for m in pending] == [b"1", b"2"]
    # Copies, not the originals (fresh ids for requeue bookkeeping).
    assert pending[0] is not first


def test_pending_is_per_queue():
    store = InMemoryMessageStore()
    store.record_publish("a", Message(b"x", delivery_mode=PERSISTENT))
    store.record_publish("b", Message(b"y", delivery_mode=PERSISTENT))
    assert [m.body for m in store.pending_for("a")] == [b"x"]
    assert store.queue_names() == ["a", "b"]
