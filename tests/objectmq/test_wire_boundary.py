"""The request envelope at a live skeleton: who gets a reply, what is refused.

A skeleton replies iff the envelope carries ``reply_to`` (no ``call`` field
travels any more), and a body the allow-listed pickle codec refuses is
acked and dropped without stopping the instance — so is one whose packed
DTO is malformed or travels under a retired code.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.mom import Message, MessageBroker
from repro.objectmq import (
    Broker,
    Remote,
    async_method,
    multi_method,
    remote_interface,
    sync_method,
)
from repro.objectmq.naming import multi_exchange_name
from tests.serialization.test_wire_format import CRAFTED


@remote_interface
class CounterApi(Remote):
    @sync_method(timeout=2.0, retry=0)
    def total(self):
        ...

    @async_method
    def add(self, amount):
        ...

    @multi_method
    @async_method
    def reset(self):
        ...

    @multi_method
    @sync_method(timeout=2.0)
    def totals(self):
        ...


class Counter:
    def __init__(self):
        self.value = 0

    def total(self):
        return self.value

    def add(self, amount):
        self.value += amount

    def reset(self):
        self.value = 0

    def totals(self):
        return self.value


@pytest.fixture
def rig():
    mom = MessageBroker()
    server = Broker(mom)
    client = Broker(mom)
    yield mom, server, client
    client.close()
    server.close()
    mom.close()


def wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_sync_call_is_answered_and_a_cast_is_not(rig):
    mom, server, client = rig
    counter = Counter()
    server.bind("counter", counter)
    proxy = client.lookup("counter", CounterApi)

    def replies():
        return mom.queue_stats(client.response_queue_name)["published"]

    proxy.add(5)
    assert wait_for(lambda: mom.queue_stats("counter")["acked"] == 1)
    assert counter.value == 5
    assert replies() == 0

    assert proxy.total() == 5
    assert replies() == 1

    assert proxy.reset() == 1  # multicast cast: one instance, still no reply
    assert wait_for(lambda: counter.value == 0)
    assert replies() == 1


def test_reply_is_decided_by_reply_to_alone(rig):
    mom, server, client = rig
    server.bind("counter", Counter())
    answers = []
    mom.declare_queue("answers")
    mom.consume("answers", answers.append, "answers", auto_ack=True)
    # No "call" key at all: the reply address is what asks for a reply ...
    asks = {"method": "total", "args": [], "reply_to": "answers", "correlation_id": "c1"}
    mom.publish("", "counter", Message(client.codec.encode(asks)))
    assert wait_for(lambda: answers)
    assert client.codec.decode(answers[0].message.body)["correlation_id"] == "c1"
    # ... and a parent-era envelope that says "sync" without one gets none.
    mute = {"method": "total", "args": [], "call": "sync", "reply_to": None}
    mom.publish("", "counter", Message(client.codec.encode(mute)))
    assert wait_for(lambda: mom.queue_stats("counter")["acked"] == 2)
    assert len(answers) == 1  # a reply is published before its request is acked


_RAN = []


def _payload():
    _RAN.append("code named by a message body ran")


class _Exploit:
    def __reduce__(self):
        return (_payload, ())


@pytest.mark.parametrize(
    "body",
    [
        pickle.dumps({"method": "add", "args": [_Exploit()]}),
        pickle.dumps(["not", "an", "envelope"]),
        b"\x80\x05 not a pickle",
        *(body for body, _ in CRAFTED.values()),
    ],
    ids=["unregistered-callable", "not-a-dict", "garbage", *CRAFTED],
)
def test_refused_body_is_acked_dropped_and_the_next_request_served(rig, body):
    mom, server, client = rig
    _RAN.clear()
    counter = Counter()
    skeleton = server.bind("counter", counter)
    mom.publish("", "counter", Message(body))
    assert wait_for(lambda: mom.queue_stats("counter")["acked"] == 1)
    assert mom.queue_stats("counter")["unacked"] == 0
    assert not _RAN
    assert skeleton.object_info.snapshot().errors == 1
    proxy = client.lookup("counter", CounterApi)
    proxy.add(3)
    assert proxy.total() == 3


class _Watched(Counter):
    """A counter that records every attribute looked up on it."""

    looked_up: list = []

    def __getattribute__(self, name):
        _Watched.looked_up.append(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize("name", [name for name in CRAFTED if name.startswith("method-code")])
def test_a_method_code_outside_the_table_reaches_no_attribute(rig, name):
    mom, server, client = rig
    skeleton = server.bind("counter", _Watched())
    _Watched.looked_up.clear()
    mom.publish("", "counter", Message(CRAFTED[name][0]))
    assert wait_for(lambda: mom.queue_stats("counter")["acked"] == 1)
    assert _Watched.looked_up == [] and skeleton.object_info.snapshot().errors == 1
    client.lookup("counter", CounterApi).add(3)
    assert wait_for(lambda: mom.queue_stats("counter")["acked"] == 2)
    assert "add" in _Watched.looked_up


def test_a_method_name_starting_with_underscore_is_refused(rig):
    """A peer names the method to run; a crafted ``__setattr__`` must not
    reach the bound object, by unicast or by multicast."""
    mom, server, client = rig
    counter = Counter()
    counter.secret = "kept"
    skeleton = server.bind("counter", counter)
    answers = []
    mom.declare_queue("answers")
    mom.consume("answers", answers.append, "answers", auto_ack=True)
    crafted = {
        "method": "__setattr__",
        "args": ["secret", "overwritten"],
        "reply_to": "answers",
        "correlation_id": "c1",
    }
    mom.publish("", "counter", Message(client.codec.encode(crafted)))
    assert wait_for(lambda: answers)
    decoded = client.codec.decode(answers[0].message.body)
    assert not decoded["ok"] and "__setattr__" in decoded["error"]

    cast = {"method": "__setattr__", "args": ["secret", "overwritten"]}
    # The fanout's Broker finds the group by the message's routing key.
    body = client.codec.encode(cast)
    mom.publish(multi_exchange_name("counter"), "counter", Message(body, routing_key="counter"))
    assert wait_for(lambda: skeleton.object_info.snapshot().errors == 2)
    assert counter.secret == "kept"
    proxy = client.lookup("counter", CounterApi)
    assert proxy.totals() == [0]
