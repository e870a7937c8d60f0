"""Multicast per connection: one queue and one dispatch thread per Broker.

A Broker's local instances of an oid share its multicast queue: each
delivery is decoded once and run on every one of them in bind order, one
after another, on the Broker's dispatch thread.  These tests pin what that
must keep: one reply per instance for a sync multicast (quorum counts
instances, not Brokers), one shared immutable notification per delivery,
and a dispatch thread that a handler may call back through without
deadlocking it or joining it from itself.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import QueueNotFound
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.mom.message import Message
from repro.objectmq import (
    Broker,
    Remote,
    RemoteBroker,
    RemoteBrokerApi,
    multi_method,
    remote_interface,
    sync_method,
)
from repro.objectmq.naming import multi_exchange_name
from repro.objectmq.remote_broker import REMOTE_BROKER_OID
from repro.sync import SYNC_SERVICE_OID, SyncService, SyncServiceApi, Workspace
from repro.sync.interface import workspace_oid
from repro.sync.models import ItemMetadata


@remote_interface
class ReplicaApi(Remote):
    @multi_method
    @sync_method(timeout=1.0, retry=0)
    def who(self):
        ...

    @multi_method(quorum=2)
    @sync_method(timeout=5.0, retry=0)
    def read(self):
        ...


class Replica:
    def __init__(self, name, straggle=False):
        self.name = name
        self.release = threading.Event()
        if not straggle:
            self.release.set()

    def who(self):
        return self.name

    def read(self):
        self.release.wait(5.0)
        return self.name


def wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def proposal(workspace, name="a.txt"):
    return ItemMetadata(
        workspace_id=workspace, version=1, filename=name, status="NEW", size=4,
        checksum="c" * 40, chunks=["f1" * 20], modified_at=1.0, device_id="dev-1",
    )


class Listener:
    def __init__(self):
        self.notifications = []

    def notify_commit(self, notification):
        self.notifications.append(notification)


# -- sync multicast: one reply per instance --------------------------------------------


def test_sync_multicast_collects_one_reply_per_instance_across_brokers():
    mom = MessageBroker()
    a, b, client = Broker(mom), Broker(mom), Broker(mom)
    try:
        a.bind("replica", Replica("a1"))
        a.bind("replica", Replica("a2"))
        b.bind("replica", Replica("b1"))
        assert sorted(client.lookup("replica", ReplicaApi).who()) == ["a1", "a2", "b1"]
    finally:
        client.close()
        a.close()
        b.close()
        mom.close()


def test_quorum_counts_instances_and_returns_through_another_broker():
    """A straggler bound first on A holds A's dispatch thread, and A's second
    instance waits behind it: local instances run one after another.  A
    quorum of 2 is still met early, by B's two instances."""
    mom = MessageBroker()
    a, b, client = Broker(mom), Broker(mom), Broker(mom)
    straggler = Replica("a-slow", straggle=True)
    try:
        a.bind("replica", straggler)
        a.bind("replica", Replica("a-fast"))
        b.bind("replica", Replica("b1"))
        b.bind("replica", Replica("b2"))
        started = time.monotonic()
        results = client.lookup("replica", ReplicaApi).read()
        assert time.monotonic() - started < 2.0
        assert sorted(results) == ["b1", "b2"]
    finally:
        straggler.release.set()
        client.close()
        a.close()
        b.close()
        mom.close()


def test_group_churn_during_multicasts_never_loses_the_steady_instance():
    """Binds and unbinds on A race the dispatch thread reading A's groups:
    every call still reaches the instance that never leaves, and when the
    churn stops only it is left in the group.  (A call a transient instance
    was counted in but left before running waits out its timeout, as for a
    crashed instance, so the loop is bounded by time, not by calls.)"""
    mom = MessageBroker()
    a, client = Broker(mom), Broker(mom)
    stop, wrong = threading.Event(), []

    def churn():
        while not stop.is_set():
            a.unbind(a.bind("replica", Replica("transient")))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    churners = [threading.Thread(target=churn) for _ in range(4)]
    try:
        a.bind("replica", Replica("steady"))
        proxy = client.lookup("replica", ReplicaApi)
        for thread in churners:
            thread.start()
        deadline = time.monotonic() + 1.5
        while time.monotonic() < deadline:
            names = proxy.who()
            if "steady" not in names or set(names) - {"steady", "transient"}:
                wrong.append(names)
        stop.set()
        for thread in churners:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in churners)
        assert wrong == []
        assert proxy.who() == ["steady"]
    finally:
        stop.set()
        sys.setswitchinterval(previous)
        client.close()
        a.close()
        mom.close()


def test_an_undecodable_multicast_is_acked_and_the_next_one_served():
    mom = MessageBroker()
    server, client = Broker(mom), Broker(mom)
    try:
        server.bind("replica", Replica("one"))
        proxy = client.lookup("replica", ReplicaApi)
        mom.publish(multi_exchange_name("replica"), "replica", Message(body=b"\x80garbage"))
        assert proxy.who() == ["one"]
        assert wait_for(lambda: mom.queue_stats(server.multicast_queue_name)["unacked"] == 0)
    finally:
        client.close()
        server.close()
        mom.close()


# -- one decode, one shared notification ---------------------------------------------


class CountingCodec:
    def __init__(self, inner):
        self._inner = inner
        self.decodes = 0

    def encode(self, obj):
        return self._inner.encode(obj)

    def decode(self, body):
        self.decodes += 1
        return self._inner.decode(body)


def test_listeners_of_one_broker_share_one_decoded_notification():
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    server, receiver = Broker(mom), Broker(mom)
    try:
        service = SyncService(metadata, server)
        metadata.create_user("alice")
        metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
        first, second = Listener(), Listener()
        receiver.bind(workspace_oid("ws"), first)
        receiver.bind(workspace_oid("ws"), second)
        receiver.codec = codec = CountingCodec(receiver.codec)
        service.commit_request("ws", "dev-1", [proposal("ws")])
        service.commit_request("ws", "dev-1", [proposal("ws", "b.txt")])
        assert wait_for(lambda: len(second.notifications) == 2)
        assert codec.decodes == 2
        for mine, theirs in zip(first.notifications, second.notifications):
            assert mine is theirs
            assert type(mine.results) is tuple
    finally:
        receiver.close()
        server.close()
        mom.close()
        metadata.close()


# -- re-entrancy on the dispatch thread ----------------------------------------------


class FetchingListener:
    """Answers a notification with a sync unicast call from the dispatch thread."""

    def __init__(self, proxy):
        self.proxy = proxy
        self.fetched = []

    def notify_commit(self, notification):
        self.fetched.append(self.proxy.get_changes(notification.workspace_id))


def test_a_listener_may_make_a_sync_call_from_the_dispatch_thread():
    """The reply is auto-acked on the replier's thread, so the dispatch
    thread waiting for it is not what would deliver it."""
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    server, receiver, client = Broker(mom), Broker(mom), Broker(mom)
    try:
        server.bind(SYNC_SERVICE_OID, SyncService(metadata, server))
        metadata.create_user("alice")
        metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
        listener = FetchingListener(receiver.lookup(SYNC_SERVICE_OID, SyncServiceApi))
        receiver.bind(workspace_oid("ws"), listener)
        client.lookup(SYNC_SERVICE_OID, SyncServiceApi).commit_request(
            "ws", "dev-1", [proposal("ws")]
        )
        assert wait_for(lambda: listener.fetched)
        assert [item.filename for item in listener.fetched[0]] == ["a.txt"]
    finally:
        client.close()
        receiver.close()
        server.close()
        mom.close()
        metadata.close()


class Widget:
    def poke(self):
        return "poked"


def test_a_multicast_that_unbinds_the_last_instance_of_an_oid_completes():
    """``RemoteBroker.shutdown`` runs on the host's dispatch thread and
    unbinds the last local widget: the queue leaves the widget fanout, and
    the thread goes on serving the fleet."""
    mom = MessageBroker()
    host, client = Broker(mom), Broker(mom)
    rbroker = RemoteBroker(host, broker_name="node-a")
    rbroker.register_factory("widget", Widget)
    rbroker.serve()
    try:
        fleet = client.lookup(REMOTE_BROKER_OID, RemoteBrokerApi)
        instance_id = fleet.spawn("widget")
        assert mom.exchange_has_bindings(multi_exchange_name("widget"))
        assert fleet.shutdown("widget", instance_id) == [True]
        assert not mom.exchange_has_bindings(multi_exchange_name("widget"))
        assert fleet.ping() == [{"broker": "node-a", "instances": {"widget": 0}}]
    finally:
        rbroker.stop()
        client.close()
        host.close()
        mom.close()


def test_close_stops_the_dispatch_thread():
    mom = MessageBroker()
    server, client = Broker(mom), Broker(mom)
    try:
        server.bind("replica", Replica("one"))
        assert client.lookup("replica", ReplicaApi).who() == ["one"]
        dispatch = f"consumer-{server.multicast_queue_name}"
        assert dispatch in [t.name for t in threading.enumerate()]
        server.close()
        assert wait_for(lambda: dispatch not in [t.name for t in threading.enumerate()])
        with pytest.raises(QueueNotFound):
            mom.queue_stats(server.multicast_queue_name)
    finally:
        client.close()
        server.close()
        mom.close()
