"""One conformance suite for every :class:`~repro.mom.transport.MomTransport`.

ObjectMQ is written against the ``MomTransport`` contract and never asks
which implementation it was given, so every implementation has to behave
the same where ObjectMQ can see it.  Each case below runs against every
entry of ``TRANSPORTS`` (today the in-process :class:`MessageBroker`),
with no per-transport branch.  A new transport joins by adding one entry
to ``TRANSPORTS``; the next one planned is a socket client to a broker
in another process (ROADMAP item 8).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeliveryError, QueueNotFound
from repro.mom import Message, MessageBroker
from repro.objectmq import (
    Broker,
    Remote,
    async_method,
    multi_method,
    remote_interface,
    sync_method,
)

from tests.mom.test_broker_server import drain, wait_for

TRANSPORTS = {
    "broker": MessageBroker,
}


@pytest.fixture(params=sorted(TRANSPORTS))
def transport(request):
    mom = TRANSPORTS[request.param]()
    yield mom
    mom.close()


class Inbox:
    """Thread-safe record of what a consumer was handed, call by call."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = []

    def __call__(self, handed):
        with self.lock:
            self.calls.append(handed)

    def deliveries(self):
        with self.lock:
            return [
                d
                for call in self.calls
                for d in (call if isinstance(call, list) else [call])
            ]

    def bodies(self):
        return [d.message.body for d in self.deliveries()]


# -- publishing -----------------------------------------------------------------


def test_default_exchange_refuses_an_undeclared_queue(transport):
    with pytest.raises(DeliveryError):
        transport.publish("", "undeclared", Message(b"x"))
    with pytest.raises(QueueNotFound):  # the refused publish declared nothing
        transport.queue_stats("undeclared")


def test_default_exchange_refuses_a_deleted_queue(transport):
    transport.declare_queue("gone")
    assert transport.publish("", "gone", Message(b"x")) == 1
    transport.delete_queue("gone")
    with pytest.raises(DeliveryError):
        transport.publish("", "gone", Message(b"y"))
    with pytest.raises(QueueNotFound):  # the refused publish declared nothing
        transport.queue_stats("gone")


def test_fanout_reaches_every_bound_queue_with_independent_envelopes(transport):
    transport.declare_exchange("fan", "fanout")
    for name in ("a", "b"):
        transport.declare_queue(name)
        transport.bind_queue("fan", name)
    assert transport.publish("fan", "ignored", Message(b"multi", headers={"k": 1})) == 2
    (first,) = drain(transport, "a")
    (second,) = drain(transport, "b")
    assert first.body == second.body == b"multi"
    assert first is not second
    first.headers["k"] = 99
    assert second.headers["k"] == 1


def test_fanout_without_bindings_raises_delivery_error(transport):
    transport.declare_exchange("fan", "fanout")
    with pytest.raises(DeliveryError):
        transport.publish("fan", "k", Message(b"x"))


# -- consuming and settling -----------------------------------------------------


def test_callback_gets_one_delivery_at_a_time_and_ack_settles_it(transport):
    transport.declare_queue("work")
    inbox = Inbox()
    transport.consume("work", inbox, consumer_tag="c1")
    transport.publish("", "work", Message(b"job"))
    assert wait_for(lambda: len(inbox.calls) == 1)
    delivery = inbox.calls[0]
    assert delivery.message.body == b"job"
    assert delivery.queue_name == "work" and delivery.consumer_tag == "c1"
    assert not delivery.message.redelivered
    assert transport.ack_many([delivery]) == 1
    assert transport.ack_many([delivery]) == 0  # settling twice is a harmless no-op
    stats = transport.queue_stats("work")
    assert stats["acked"] == 1 and stats["unacked"] == 0 and stats["ready"] == 0


def test_batch_callback_gets_lists_and_ack_many_settles_them(transport):
    transport.declare_queue("work")
    inbox = Inbox()

    def on_run(deliveries):
        inbox(deliveries)
        assert transport.ack_many(deliveries) == len(deliveries)

    transport.consume("work", None, consumer_tag="c1", prefetch=4, batch_callback=on_run)
    for i in range(6):
        transport.publish("", "work", Message(f"m{i}".encode()))
    assert wait_for(lambda: len(inbox.deliveries()) == 6)
    assert all(isinstance(call, list) and call for call in inbox.calls)
    assert inbox.bodies() == [f"m{i}".encode() for i in range(6)]
    assert wait_for(lambda: transport.queue_stats("work")["acked"] == 6)
    assert transport.ack_many(inbox.deliveries()) == 0
    assert transport.queue_stats("work")["unacked"] == 0


def test_cancel_redelivers_unacked_to_a_sibling(transport):
    """An unacked delivery is held while its consumer lives and goes to
    a sibling once it is cancelled: the supervisor lease rests on this."""
    transport.declare_queue("work")
    crashed, survivor = Inbox(), Inbox()
    transport.consume("work", crashed, consumer_tag="never-acks")
    transport.publish("", "work", Message(b"job"))
    assert wait_for(lambda: len(crashed.calls) == 1)

    def handler(delivery):
        survivor(delivery)
        transport.ack_many([delivery])

    transport.consume("work", handler, consumer_tag="sibling")
    # Hold until ack or cancel: a live consumer's unacked delivery goes
    # to no sibling, however long it is held.
    time.sleep(0.3)
    assert survivor.calls == []
    transport.cancel("work", "never-acks")
    assert wait_for(lambda: len(survivor.calls) == 1, timeout=5.0)
    redelivered = survivor.calls[0]
    assert redelivered.message.body == b"job" and redelivered.message.redelivered
    assert redelivered.consumer_tag == "sibling"
    # The cancelled consumer's late ack must not settle anything.
    assert transport.ack_many(crashed.calls) == 0


def test_auto_ack_handler_runs_on_the_publishing_thread(transport):
    """An auto-ack handler has no thread of its own: it has run, on the
    publisher's thread, by the time ``publish`` returns."""
    transport.declare_queue("own")
    ran_on = []
    transport.consume(
        "own",
        lambda delivery: ran_on.append(threading.current_thread()),
        consumer_tag="c1",
        auto_ack=True,
    )
    seen_at_return = []

    def publish():
        transport.publish("", "own", Message(b"x"))
        seen_at_return.append(list(ran_on))

    publish()
    worker = threading.Thread(target=publish, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive()
    here = threading.current_thread()
    assert seen_at_return == [[here], [here, worker]]
    assert transport.queue_stats("own")["unacked"] == 0


def test_auto_ack_handler_may_publish_to_its_own_fanout_in_order(transport):
    """The contract lets an auto-ack handler publish, even to a fanout
    its own queue is bound to.  Nothing deadlocks, and each publisher's
    messages arrive in the order it sent them."""
    transport.declare_exchange("fan", "fanout")
    transport.declare_queue("own")
    transport.bind_queue("fan", "own")
    inbox = Inbox()

    def handler(delivery):
        inbox(delivery)
        body = delivery.message.body
        if body.startswith(b"ping"):
            transport.publish("fan", "", Message(b"echo" + body[4:]))

    transport.consume("own", handler, consumer_tag="c1", auto_ack=True)
    pings = [f"ping{i}".encode() for i in range(10)]
    echoes = [f"echo{i}".encode() for i in range(10)]

    def publish_pings():
        for body in pings:
            transport.publish("fan", "", Message(body))

    publisher = threading.Thread(target=publish_pings, daemon=True)
    publisher.start()
    publisher.join(timeout=5.0)
    assert not publisher.is_alive(), "publishing to an auto-ack consumer deadlocked"
    assert wait_for(lambda: len(inbox.calls) == 20, timeout=5.0)
    bodies = inbox.bodies()
    assert [b for b in bodies if b.startswith(b"ping")] == pings
    assert [b for b in bodies if b.startswith(b"echo")] == echoes
    assert all(bodies.index(p) < bodies.index(e) for p, e in zip(pings, echoes))
    assert wait_for(lambda: transport.queue_stats("own")["unacked"] == 0)


def test_exchange_has_bindings_follows_bind_and_unbind(transport):
    assert not transport.exchange_has_bindings("fan")  # missing: a plain False
    transport.declare_exchange("fan", "fanout")
    assert not transport.exchange_has_bindings("fan")
    transport.declare_queue("a")
    transport.bind_queue("fan", "a")
    assert transport.exchange_has_bindings("fan")
    transport.unbind_queue("fan", "a")
    assert not transport.exchange_has_bindings("fan")
    transport.bind_queue("fan", "a")
    transport.delete_queue("a")
    assert not transport.exchange_has_bindings("fan")


# -- ObjectMQ over the transport ------------------------------------------------


@remote_interface
class EchoApi(Remote):
    @sync_method(timeout=3.0, retry=1)
    def echo(self, value):
        ...

    @async_method
    def note(self, value):
        ...

    @multi_method
    @sync_method(timeout=2.0, retry=0)
    def ident(self):
        ...


class EchoServer:
    def __init__(self, name="echo"):
        self.name = name
        self.notes = []

    def echo(self, value):
        return value

    def note(self, value):
        self.notes.append(value)

    def ident(self):
        return self.name


@pytest.fixture
def omq_pair(transport):
    server, client = Broker(transport), Broker(transport)
    yield server, client
    client.close()
    server.close()


def test_objectmq_sync_call(omq_pair):
    server, client = omq_pair
    server.bind("echo", EchoServer())
    assert client.lookup("echo", EchoApi).echo("hello") == "hello"


def test_objectmq_async_cast(omq_pair):
    server, client = omq_pair
    echo = EchoServer()
    server.bind("echo", echo)
    client.lookup("echo", EchoApi).note(7)
    assert wait_for(lambda: echo.notes == [7])


def test_objectmq_multicast_reaches_every_instance(omq_pair):
    server, client = omq_pair
    assert not server.multicast_has_listeners("echo")
    server.bind("echo", EchoServer("one"))
    server.bind("echo", EchoServer("two"))
    assert client.multicast_has_listeners("echo")
    assert sorted(client.lookup("echo", EchoApi).ident()) == ["one", "two"]


def test_objectmq_cast_before_the_first_bind_is_delivered_once_an_instance_binds(
    omq_pair,
):
    """``lookup`` declares the oid's queue, as a bound instance does: a cast
    made before any instance binds waits there, not lost for want of a queue."""
    server, client = omq_pair
    client.lookup("echo", EchoApi).note(7)
    echo = EchoServer()
    server.bind("echo", echo)
    assert wait_for(lambda: echo.notes == [7])


def test_objectmq_casts_precede_a_later_sync_call(omq_pair):
    server, client = omq_pair
    echo = EchoServer()
    server.bind("echo", echo)
    proxy = client.lookup("echo", EchoApi)
    for i in range(10):
        proxy.note(i)
    # One publisher, one queue: the call is behind the casts, so its
    # reply means the instance has already run every one of them.
    assert proxy.echo("after") == "after"
    assert echo.notes == list(range(10))


def test_objectmq_load_balancing(omq_pair):
    server, client = omq_pair
    both_busy = threading.Barrier(2)

    class Worker(EchoServer):
        def note(self, value):
            if value < 2:
                # Returns only once the sibling is inside its own cast:
                # a busy instance must not hold the queue's next message.
                both_busy.wait(timeout=5.0)
            super().note(value)

    workers = [Worker(str(i)) for i in range(2)]
    for worker in workers:
        server.bind("echo", worker)
    proxy = client.lookup("echo", EchoApi)
    for i in range(10):
        proxy.note(i)
    assert wait_for(lambda: sum(len(w.notes) for w in workers) == 10, timeout=5.0)
    assert all(w.notes for w in workers)
    assert sorted(workers[0].notes + workers[1].notes) == list(range(10))
