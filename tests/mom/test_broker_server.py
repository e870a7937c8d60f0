"""Unit tests for the MessageBroker facade."""

from __future__ import annotations

import time

import pytest

from repro.errors import BrokerClosed, DeliveryError, ExchangeNotFound, QueueNotFound
from repro.mom import Message, MessageBroker
from repro.mom.exchange import Exchange


def wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def drain(mom, queue_name):
    """Take every ready message off *queue_name*, in order.

    A passing auto-ack consumer is handed the backlog on this thread
    before ``consume`` returns, and is cancelled at once.
    """
    taken = []
    mom.consume(queue_name, lambda d: taken.append(d.message), "drain", auto_ack=True)
    mom.cancel(queue_name, "drain")
    return taken


def test_default_exchange_routes_to_a_declared_queue_and_a_closed_broker_refuses(mom):
    first = mom.declare_queue("work")
    assert mom.publish("", "work", Message(b"x")) == 1
    assert [m.body for m in drain(mom, "work")] == [b"x"]
    # After a delete the name is undeclared again: a redeclare makes a
    # fresh queue, not the closed one, and the publish reaches it.
    mom.delete_queue("work")
    assert mom.declare_queue("work") is not first
    assert mom.publish("", "work", Message(b"y")) == 1
    assert [m.body for m in drain(mom, "work")] == [b"y"]
    # A closed broker declares nothing on the way to refusing.
    mom.close()
    with pytest.raises(BrokerClosed):
        mom.publish("", "never-declared", Message(b"z"))
    with pytest.raises(QueueNotFound):
        mom.queue_stats("never-declared")


def test_declare_queue_idempotent(mom):
    q1 = mom.declare_queue("q")
    q2 = mom.declare_queue("q")
    assert q1 is q2


def test_fanout_copies_to_all_bound_queues(mom):
    mom.declare_exchange("fan", "fanout")
    mom.declare_queue("a")
    mom.declare_queue("b")
    mom.bind_queue("fan", "a")
    mom.bind_queue("fan", "b")
    routed = mom.publish("fan", "ignored", Message(b"multi"))
    assert routed == 2
    assert [m.body for m in drain(mom, "a")] == [b"multi"]
    assert [m.body for m in drain(mom, "b")] == [b"multi"]


def test_fanout_copies_are_independent(mom):
    mom.declare_exchange("fan", "fanout")
    mom.declare_queue("a")
    mom.declare_queue("b")
    mom.bind_queue("fan", "a")
    mom.bind_queue("fan", "b")
    mom.publish("fan", "", Message(b"x", headers={"k": 1}))
    (first,) = drain(mom, "a")
    (second,) = drain(mom, "b")
    assert first is not second
    first.headers["k"] = 99
    assert second.headers["k"] == 1


def test_publish_to_unbound_exchange_raises(mom):
    mom.declare_exchange("fan", "fanout")
    with pytest.raises(DeliveryError):
        mom.publish("fan", "k", Message(b"x"))


def test_unknown_exchange_raises(mom):
    with pytest.raises(ExchangeNotFound):
        mom.publish("missing", "k", Message(b"x"))


def test_unknown_queue_raises(mom):
    with pytest.raises(QueueNotFound):
        mom.consume("missing", lambda d: None, "c1")


def test_consume_and_ack_flow(mom):
    mom.declare_queue("work")
    got = []

    def handler(delivery):
        mom.ack_many([delivery])  # ack first: the test polls `got`, then reads the ack
        got.append(delivery)

    mom.consume("work", handler, consumer_tag="c1")
    mom.publish("", "work", Message(b"job"))
    assert wait_for(lambda: len(got) == 1)
    stats = mom.queue_stats("work")
    assert stats["acked"] == 1
    assert stats["unacked"] == 0


def test_cancel_requeues_unacked(mom):
    mom.declare_queue("work")
    got = []
    mom.consume("work", lambda d: got.append(d), consumer_tag="c1")
    mom.publish("", "work", Message(b"job"))
    assert wait_for(lambda: len(got) == 1)
    mom.cancel("work", "c1")
    (message,) = drain(mom, "work")
    assert message.redelivered


def test_delete_queue_removes_bindings(mom):
    mom.declare_exchange("fan", "fanout")
    mom.declare_exchange("keys", "direct")
    mom.declare_queue("a")
    mom.bind_queue("fan", "a")
    mom.bind_queue("keys", "a", "k1")
    mom.bind_queue("keys", "a", "k2")
    mom.unbind_queue("keys", "a", "k1")  # still bound under k2
    mom.delete_queue("a")
    mom.declare_queue("a")  # a new queue of that name inherits no binding
    for exchange, key in (("fan", ""), ("keys", "k2")):
        with pytest.raises(DeliveryError):
            mom.publish(exchange, key, Message(b"x"))


def test_deleting_a_queue_visits_only_the_exchanges_it_was_bound_to(mom, monkeypatch):
    """Tearing down n bound listeners (an exchange and a queue each, as a
    skeleton has) unbinds n times, not once per exchange per queue: n²."""
    visits = []
    unbind = Exchange.unbind_queue_everywhere

    def counted(exchange, queue_name):
        visits.append((exchange.name, queue_name))
        unbind(exchange, queue_name)

    monkeypatch.setattr(Exchange, "unbind_queue_everywhere", counted)
    listeners = [(f"ws{i}.multi", f"ws{i}.inst") for i in range(64)]
    for exchange, queue in listeners:
        mom.declare_exchange(exchange, "fanout")
        mom.declare_queue(queue)
        mom.bind_queue(exchange, queue)
    mom.declare_queue("never-bound")
    for exchange, queue in listeners:
        mom.unbind_queue(exchange, queue)
        mom.delete_queue(queue)
    mom.delete_queue("never-bound")
    assert visits == listeners


def test_closed_broker_rejects_operations():
    broker = MessageBroker()
    broker.close()
    with pytest.raises(BrokerClosed):
        broker.declare_queue("q")
    with pytest.raises(BrokerClosed):
        broker.publish("", "q", Message(b"x"))


def test_stats_accumulate(mom):
    mom.declare_queue("q")
    mom.publish("", "q", Message(b"12345"))
    snapshot = mom.stats.snapshot()
    assert snapshot["publishes"] == 1
    assert snapshot["bytes_published"] == 5
