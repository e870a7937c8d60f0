"""Integration tests: ObjectMQ RPC over the in-process MOM broker.

Covers the HelloWorld flow of the paper's Fig 2 plus load balancing,
error propagation, timeouts/retries and multicast collection.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import ObjectMqError, QueueNotFound, RemoteInvocationError, RemoteTimeout
from repro.mom import Message, MessageBroker
from repro.objectmq import (
    Broker,
    Remote,
    async_method,
    multi_method,
    remote_interface,
    sync_method,
)
from repro.telemetry.registry import get_registry


@remote_interface
class CalculatorApi(Remote):
    @sync_method(timeout=2.0, retry=1)
    def add(self, a, b):
        ...

    @sync_method(timeout=0.3, retry=1)
    def slow(self, seconds):
        ...

    @sync_method(timeout=2.0, retry=0)
    def fail(self):
        ...

    @async_method
    def record(self, value):
        ...

    @multi_method
    @sync_method(timeout=1.0, retry=0)
    def who(self):
        ...

    @multi_method
    @async_method
    def broadcast(self, value):
        ...


class Calculator:
    def __init__(self, name="calc"):
        self.name = name
        self.recorded = []
        self.broadcasts = []
        self.lock = threading.Lock()

    def add(self, a, b):
        return a + b

    def slow(self, seconds):
        time.sleep(seconds)
        return "done"

    def fail(self):
        raise ValueError("deliberate")

    def record(self, value):
        with self.lock:
            self.recorded.append(value)

    def who(self):
        return self.name

    def broadcast(self, value):
        with self.lock:
            self.broadcasts.append(value)


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
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_hello_world_round_trip(rig):
    _mom, server, client = rig
    server.bind("calc", Calculator())
    proxy = client.lookup("calc", CalculatorApi)
    assert proxy.add(2, 3) == 5
    assert proxy.add(a=10, b=-4) == 6


@remote_interface
class ScaleApi(Remote):
    @sync_method(timeout=2.0, retry=0)
    def scale(self, value, factor=2, offset=0, *extra, unit=""):
        ...


class Scale:
    def scale(self, value, factor=2, offset=0, *extra, unit=""):
        return value * factor + offset + sum(extra), unit


class _Recorded:
    """A codec that keeps every envelope it decodes."""

    def __init__(self, codec):
        self.codec, self.decoded = codec, []

    def encode(self, obj):
        return self.codec.encode(obj)

    def decode(self, data):
        envelope = self.codec.decode(data)
        self.decoded.append(envelope)
        return envelope


@pytest.mark.parametrize(
    "args, kwargs, sent_args, sent_kwargs",
    [
        ((), {"value": 3, "factor": 4}, [3, 4], None),
        ((3,), {"offset": 1, "factor": 4}, [3, 4, 1], None),
        ((3,), {"offset": 1}, [3], {"offset": 1}),  # a gap: factor is left out
        ((3, 4, 1), {"unit": "m"}, [3, 4, 1], {"unit": "m"}),  # keyword-only
        ((3,), {}, [3], None),
    ],
    ids=["all-keyword", "fills-in-order", "gap", "keyword-only", "positional"],
)
def test_keyword_arguments_that_fill_positions_travel_as_args(
    rig, args, kwargs, sent_args, sent_kwargs
):
    _mom, server, client = rig
    server.codec = _Recorded(server.codec)
    server.bind("scale", Scale())
    proxy = client.lookup("scale", ScaleApi)
    assert proxy.scale(*args, **dict(kwargs)) == Scale().scale(*args, **kwargs)
    (envelope,) = server.codec.decoded
    assert envelope["args"] == sent_args
    assert envelope.get("kwargs") == sent_kwargs


def test_async_invocation_fire_and_forget(rig):
    _mom, server, client = rig
    calc = Calculator()
    server.bind("calc", calc)
    proxy = client.lookup("calc", CalculatorApi)
    assert proxy.record(42) is None
    assert wait_for(lambda: calc.recorded == [42])


def test_remote_exception_propagates(rig):
    _mom, server, client = rig
    server.bind("calc", Calculator())
    proxy = client.lookup("calc", CalculatorApi)
    with pytest.raises(RemoteInvocationError) as excinfo:
        proxy.fail()
    assert "deliberate" in str(excinfo.value)


def test_sync_timeout_raises_after_retries(rig):
    _mom, _server, client = rig
    # Nothing bound under this oid: the queue exists after the first
    # publish but no consumer replies.
    proxy = client.lookup("nobody-home", CalculatorApi)
    started = time.monotonic()
    with pytest.raises(RemoteTimeout):
        proxy.slow(0)
    elapsed = time.monotonic() - started
    # 2 attempts x 0.3s timeout
    assert 0.5 <= elapsed < 3.0
    assert proxy.call_stats.timeouts == 1


def test_late_reply_does_not_revive_a_closed_brokers_response_queue():
    """A reply landing after its caller's Broker closed is dropped.

    Published on the default exchange it would declare ``replies.<id>``
    again: a shared queue nobody reads or deletes, holding the replies,
    with a registry source nobody unregisters.
    """

    @remote_interface
    class ImpatientApi(Remote):
        @sync_method(timeout=0.05, retry=1)
        def slow(self, seconds):
            ...

    release = threading.Event()

    class Parked(Calculator):
        def slow(self, seconds):
            assert release.wait(timeout=5.0)
            return "late"

    mom = MessageBroker()
    server, client = Broker(mom), Broker(mom)
    try:
        server.bind("calc", Parked())
        proxy = client.lookup("calc", ImpatientApi)
        with pytest.raises(RemoteTimeout):
            proxy.slow(0)
        client.close()
        sources = get_registry().source_count()
        release.set()
        # Both attempts are served, one after the other, and acked after
        # their replies were sent (or dropped).
        assert wait_for(lambda: mom.queue_stats("calc")["acked"] == 2)
        with pytest.raises(QueueNotFound):
            mom.queue_stats(client.response_queue_name)
        assert get_registry().source_count() == sources
    finally:
        release.set()
        server.close()
        mom.close()


def test_a_reply_to_a_caller_that_closed_meanwhile_creates_no_queue():
    """The caller's reply queue goes between the invocation and the reply
    (a caller that timed out and closed in that window): the reply is
    dropped and no queue named after the reply queue is left behind."""

    @remote_interface
    class OnceApi(Remote):
        @sync_method(timeout=0.2, retry=0)
        def add(self, a, b):
            ...

    mom = MessageBroker()
    server, client = Broker(mom), Broker(mom)
    reply_queue = client.response_queue_name
    publish = mom.publish

    def caller_closes_before_the_reply(exchange_name, routing_key, message):
        if routing_key == reply_queue:
            mom.delete_queue(reply_queue)
        return publish(exchange_name, routing_key, message)

    mom.publish = caller_closes_before_the_reply
    try:
        server.bind("calc", Calculator())
        proxy = client.lookup("calc", OnceApi)
        with pytest.raises(RemoteTimeout):
            proxy.add(1, 2)
        assert wait_for(lambda: mom.queue_stats("calc")["acked"] == 1)
        with pytest.raises(QueueNotFound):
            mom.queue_stats(reply_queue)
    finally:
        client.close()
        server.close()
        mom.close()


def test_concurrent_replies_each_reach_their_own_caller(rig):
    """The reply router runs on the replying skeletons' threads, several at
    once: under a short switch interval every call still gets its own
    answer, and a multicast gets one reply from each instance."""
    _mom, server, client = rig
    for name in "0123":
        server.bind("calc", Calculator(name))
    proxy = client.lookup("calc", CalculatorApi)
    wrong = []

    def caller(base):
        for i in range(40):
            if proxy.add(base, i) != base + i:
                wrong.append((base, i))
        if sorted(proxy.who()) != list("0123"):
            wrong.append((base, "who"))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(n * 1000,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert wrong == []


def test_slow_call_succeeds_within_timeout(rig):
    _mom, server, client = rig
    server.bind("calc", Calculator())
    proxy = client.lookup("calc", CalculatorApi)
    assert proxy.slow(0.05) == "done"


def test_load_balancing_across_instances(rig):
    _mom, server, client = rig
    c1, c2 = Calculator("one"), Calculator("two")
    server.bind("calc", c1)
    server.bind("calc", c2)
    proxy = client.lookup("calc", CalculatorApi)
    for i in range(20):
        proxy.record(i)
    assert wait_for(lambda: len(c1.recorded) + len(c2.recorded) == 20)
    # Both instances share the work queue.
    assert c1.recorded and c2.recorded


def test_multicast_sync_collects_all_replies(rig):
    _mom, server, client = rig
    server.bind("calc", Calculator("one"))
    server.bind("calc", Calculator("two"))
    server.bind("calc", Calculator("three"))
    proxy = client.lookup("calc", CalculatorApi)
    names = proxy.who()
    assert sorted(names) == ["one", "three", "two"]


def test_multicast_async_reaches_every_instance(rig):
    """The count is of Brokers reached: one queue per connection carries
    the call to all of its local instances."""
    mom, server, client = rig
    instances = [Calculator(str(i)) for i in range(4)]
    other = Broker(mom)
    try:
        for calc in instances[:3]:
            server.bind("calc", calc)
        other.bind("calc", instances[3])
        proxy = client.lookup("calc", CalculatorApi)
        count = proxy.broadcast("hello")
        assert count == 2
        assert wait_for(lambda: all(c.broadcasts == ["hello"] for c in instances))
    finally:
        other.close()


def test_multicast_to_empty_group_is_noop(rig):
    _mom, _server, client = rig
    proxy = client.lookup("ghost", CalculatorApi)
    assert proxy.broadcast("anyone?") == 0
    assert proxy.who() == []


def test_multicast_after_the_last_instance_unbinds_is_noop(rig):
    """The proxy's fanout outlives its group: with no binding left, a
    multicast is the empty group's no-op, not an error."""
    _mom, server, client = rig
    skeleton = server.bind("calc", Calculator("one"))
    proxy = client.lookup("calc", CalculatorApi)
    assert proxy.broadcast("before") == 1
    server.unbind(skeleton)
    assert not client.multicast_has_listeners("calc")
    assert proxy.broadcast("after") == 0
    assert proxy.who() == []


def test_new_instance_joins_multicast_group(rig):
    _mom, server, client = rig
    server.bind("calc", Calculator("one"))
    proxy = client.lookup("calc", CalculatorApi)
    assert len(proxy.who()) == 1
    server.bind("calc", Calculator("two"))
    assert len(proxy.who()) == 2


def test_unbind_leaves_multicast_group(rig):
    _mom, server, client = rig
    sk1 = server.bind("calc", Calculator("one"))
    server.bind("calc", Calculator("two"))
    proxy = client.lookup("calc", CalculatorApi)
    assert len(proxy.who()) == 2
    server.unbind(sk1)
    assert proxy.who() == ["two"]


def test_codec_configurable_per_broker():
    mom = MessageBroker()
    server = Broker(mom, environment={"codec": "json"})
    client = Broker(mom, environment={"codec": "json"})
    server.bind("calc", Calculator())
    proxy = client.lookup("calc", CalculatorApi)
    assert proxy.add(1, 2) == 3
    client.close()
    server.close()
    mom.close()


@pytest.mark.parametrize(
    "body",
    [
        b'{"__bytes__": 5}',
        b'{"__bytes__": "\\u0100"}',
        b'{"__wire__": "dict", "dict": 3}',
        b'{"__wire__": "dict"}',
        b'{"__wire__": "stacksync.CommitResult"}',
    ],
)
def test_a_malformed_reply_is_dropped_and_the_next_call_answered(body, caplog):
    """The reply router drops a body it cannot decode as an ObjectMQ
    error, whatever tag is malformed, and keeps serving its caller."""
    mom = MessageBroker()
    server = Broker(mom, environment={"codec": "json"})
    client = Broker(mom, environment={"codec": "json"})
    try:
        server.bind("calc", Calculator())
        proxy = client.lookup("calc", CalculatorApi)
        with caplog.at_level("WARNING", logger="repro.objectmq.broker"):
            mom.publish("", client.response_queue_name, Message(body))
        assert "dropping undecodable reply" in caplog.text
        assert proxy.add(2, 3) == 5
    finally:
        client.close()
        server.close()
        mom.close()


def test_unknown_environment_key_is_rejected():
    mom = MessageBroker()
    with pytest.raises(ObjectMqError, match="publish_buffer"):
        Broker(mom, environment={"client_id": "c", "publish_buffer": 64})
    assert not mom._queues  # refused before anything was declared
    mom.close()


def test_crash_mid_call_redelivers_to_survivor(rig):
    """§3.4: a crashed instance's in-flight call completes elsewhere."""
    _mom, server, client = rig

    class Crashy(Calculator):
        def __init__(self, name, skeleton_holder):
            super().__init__(name)
            self.holder = skeleton_holder

        def slow(self, seconds):
            # Crash *while processing* (before acking).
            skeleton = self.holder.get("victim")
            if skeleton is not None:
                self.holder["victim"] = None
                threading.Thread(target=skeleton.kill).start()
                time.sleep(0.2)
                return "crashed-should-not-matter"
            return super().slow(seconds)

    holder = {}
    crashy = Crashy("crashy", holder)
    survivor = Calculator("survivor")
    holder["victim"] = server.bind("calc-ft", crashy)
    server.bind("calc-ft", survivor)

    @remote_interface
    class FtApi(Remote):
        @sync_method(timeout=1.5, retry=3)
        def slow(self, seconds):
            ...

    proxy = client.lookup("calc-ft", FtApi)
    # The first delivery goes to one of the two instances; if it's the
    # crashy one, the reply comes from the survivor via redelivery.
    assert proxy.slow(0.01) == "done" or proxy.slow(0.01) == "done"


@pytest.mark.parametrize("prefetch", [1, 4, 64])
def test_casts_held_by_a_killed_instance_run_on_the_next_one(rig, prefetch):
    """§3.4 with no broker journal: a killed instance's unacked casts, the
    one it is running and those waiting in its window, go back to the
    oid's queue, and the next instance runs every one, in order."""
    mom, server, client = rig
    entered, release = threading.Event(), threading.Event()

    class Parked(Calculator):
        def record(self, value):
            entered.set()
            assert release.wait(timeout=5.0)
            super().record(value)

    parked = Parked("parked")
    doomed = server.bind("calc-ft", parked, prefetch=prefetch)
    proxy = client.lookup("calc-ft", CalculatorApi)
    for i in range(6):
        proxy.record(i)
    assert entered.wait(timeout=5.0)
    held = min(prefetch, 6)
    assert wait_for(lambda: mom.queue_stats("calc-ft")["unacked"] == held)
    doomed.kill()
    stats = mom.queue_stats("calc-ft")
    assert (stats["ready"], stats["unacked"], stats["redelivered"]) == (6, 0, held)

    survivor = Calculator("survivor")
    server.bind("calc-ft", survivor)
    assert wait_for(lambda: survivor.recorded == list(range(6)))
    # The killed instance finishes the call it was in (at least once means
    # cast 0 ran twice), and its late ack settles nothing.
    release.set()
    assert wait_for(lambda: parked.recorded == [0])
    assert wait_for(lambda: mom.queue_stats("calc-ft")["acked"] == 6)


class CountingAcks:
    """A MOM that delegates to *mom* and records the size of each ``ack_many``."""

    def __init__(self, mom):
        self._mom = mom
        self.runs = []

    def ack_many(self, deliveries):
        deliveries = list(deliveries)
        self.runs.append(len(deliveries))
        return self._mom.ack_many(deliveries)

    def __getattr__(self, name):
        return getattr(self._mom, name)


@pytest.mark.parametrize(
    "prefetch, settled_runs",
    [(64, [1, 15]), (1, [1] * 16)],
    ids=["prefetch-64", "prefetch-1"],
)
def test_backlog_behind_a_busy_instance_is_settled_as_one_run(prefetch, settled_runs):
    """Casts that pile up behind a blocked method reach the skeleton as one
    run and are acked together; with ``prefetch=1`` there is never a pile."""
    mom = MessageBroker()
    counting = CountingAcks(mom)
    server, client = Broker(counting), Broker(mom)
    entered, release = threading.Event(), threading.Event()

    class Parked(Calculator):
        def record(self, value):
            entered.set()
            assert release.wait(timeout=5.0)
            super().record(value)

    calc = Parked()
    try:
        server.bind("calc", calc, prefetch=prefetch)
        proxy = client.lookup("calc", CalculatorApi)
        proxy.record(0)
        assert entered.wait(timeout=2.0)
        for value in range(1, 16):
            proxy.record(value)
        release.set()
        assert wait_for(lambda: sum(counting.runs) == 16)
        assert counting.runs == settled_runs
        assert calc.recorded == list(range(16))
        assert mom.declare_queue("calc").unacked_count == 0
    finally:
        release.set()
        client.close()
        server.close()
        mom.close()
