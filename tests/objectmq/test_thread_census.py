"""A consumer costs a thread only once a message reaches it, a reply
consumer never does, and multicast costs one thread per receiving Broker.

Half the consumers of a deployment never receive a message — a listener's
unicast queue (its interface has only a multicast method) — so binding
must start no thread, and traffic exactly the threads it reaches.  A
Broker's reply consumer is auto-ack: its handler runs on the replying
thread, so sync calls start no thread on the caller's side.  Multicast is
per connection: a Broker hosting many listeners has one multicast queue
and one dispatch thread, and a notification is published to it once.
"""

from __future__ import annotations

import threading
import time

from repro.client import StackSyncClient
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker, Remote, async_method, remote_interface
from repro.storage import SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService, SyncServiceApi, Workspace
from repro.sync.interface import SYNC_SERVICE_PREFETCH, workspace_oid
from repro.sync.models import ItemMetadata

WORKSPACES, LISTENERS = 32, 2


@remote_interface
class SinkApi(Remote):
    @async_method
    def push(self, value):
        ...


class Sink:
    def __init__(self):
        self.got = threading.Event()
        self.notifications = []

    def push(self, value):
        self.got.set()

    def notify_commit(self, notification):
        self.notifications.append(notification)
        self.got.set()


def consumer_threads():
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("consumer-")
    )


def proposals(workspace, count):
    return [
        ItemMetadata(
            workspace_id=workspace, version=1, filename=f"f-{n}.dat", status="NEW",
            size=4, checksum="c" * 40, chunks=[f"{n:02x}" * 20], modified_at=1.0,
            device_id="dev-1",
        )
        for n in range(count)
    ]


class CommitRig:
    """The shape of the repo benchmark's ``commit_load.deploy``: a SyncService,
    one receiver Broker with two listeners on each of 32 workspaces, and a
    generator Broker that only looks the service up."""

    def __init__(self):
        self.mom = MessageBroker()
        self.metadata = MemoryMetadataBackend()
        self.server, self.receiver, self.client = (
            Broker(self.mom), Broker(self.mom), Broker(self.mom)
        )
        service = SyncService(self.metadata, self.server)
        self.service = self.server.bind(
            SYNC_SERVICE_OID, service, prefetch=SYNC_SERVICE_PREFETCH
        )
        self.metadata.create_user("alice")
        self.sinks = {}
        for n in range(WORKSPACES):
            name = f"ws-{n}"
            self.metadata.create_workspace(Workspace(workspace_id=name, owner="alice"))
            self.sinks[name] = [Sink() for _ in range(LISTENERS)]
            for sink in self.sinks[name]:
                self.receiver.bind(workspace_oid(name), sink)
        self.proxy = self.client.lookup(SYNC_SERVICE_OID, SyncServiceApi)

    def commit(self, workspace, items=1):
        sinks = self.sinks[workspace]
        before = [len(sink.notifications) for sink in sinks]
        self.proxy.commit_request(workspace, "dev-1", proposals(workspace, items))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(len(s.notifications) > b for s, b in zip(sinks, before)):
                return
            time.sleep(0.005)
        raise AssertionError(f"no notification on {workspace}")

    def close(self):
        self.client.close()
        self.receiver.close()
        self.server.close()
        self.mom.close()
        self.metadata.close()


def test_bound_objects_without_traffic_start_no_consumer_thread():
    mom = MessageBroker()
    server, client = Broker(mom), Broker(mom)
    try:
        sinks = [Sink() for _ in range(32)]
        skeletons = [server.bind(f"sink-{n}", sink) for n, sink in enumerate(sinks)]
        assert consumer_threads() == []

        client.lookup("sink-7", SinkApi).push(1)
        assert sinks[7].got.wait(2.0)
        # One cast, one consumer: the unicast side of the instance it reached.
        assert consumer_threads() == [f"consumer-{skeletons[7].instance_id}.uni"]
    finally:
        client.close()
        server.close()
        mom.close()


def test_commit_deployment_closed_without_traffic_started_no_thread():
    rig = CommitRig()
    try:
        assert consumer_threads() == []
        # Binding declared one multicast queue for the receiver, none per
        # listener, and the lookup-only generator declared none.
        queues = list(rig.mom._queues)
        assert rig.receiver.multicast_queue_name in queues
        assert rig.client.multicast_queue_name not in queues
        assert not [q for q in queues if ".inst." in q]
    finally:
        rig.close()


def test_a_commit_per_workspace_runs_on_two_consumer_threads():
    """The SyncService's unicast consumer and the receiver Broker's one
    dispatch thread serve every workspace and both listeners of each."""
    rig = CommitRig()
    try:
        for n in range(WORKSPACES):
            rig.commit(f"ws-{n}")
        assert consumer_threads() == sorted([
            f"consumer-{rig.service.instance_id}.uni",
            f"consumer-{rig.receiver.multicast_queue_name}",
        ])
        assert all(
            len(sink.notifications) == 1 for sinks in rig.sinks.values() for sink in sinks
        )
    finally:
        rig.close()


def test_a_bundle_commit_publishes_one_request_and_one_notification():
    rig = CommitRig()
    publishes = []
    publish = rig.mom.publish

    def recording(exchange, routing_key, message):
        reached = publish(exchange, routing_key, message)
        publishes.append((exchange, reached, len(message.body)))
        return reached

    rig.mom.publish = recording
    try:
        rig.commit("ws-0")  # warm: the service's fanout proxy exists
        time.sleep(0.05)  # listeners can see a notification before its publish returns
        publishes.clear()
        before = rig.mom.stats.snapshot()["bytes_published"]
        rig.commit("ws-1", items=8)
        time.sleep(0.05)
        moved = rig.mom.stats.snapshot()["bytes_published"] - before
        (request_ex, request_to, request), (notify_ex, notify_to, notify) = publishes
        assert (request_ex, request_to) == ("", 1)
        assert (notify_ex, notify_to) == (f"{workspace_oid('ws-1')}.multi", 1)
        assert moved == request + notify
    finally:
        rig.close()


def test_two_device_starts_run_on_one_consumer_thread():
    """The shape of the repo benchmark's ``file_sync.deploy``: two devices
    ``start()`` (a cast and two sync calls each) on one stack.  Only the
    SyncService's unicast consumer gets a thread; the replies run on it."""
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    server = Broker(mom)
    devices = []
    try:
        skeleton = server.bind(
            SYNC_SERVICE_OID, SyncService(metadata, server), prefetch=SYNC_SERVICE_PREFETCH
        )
        metadata.create_user("alice")
        workspace = Workspace(workspace_id="ws-1", owner="alice")
        metadata.create_workspace(workspace)
        storage = SwiftLikeStore()
        for name in ("a", "b"):
            device = StackSyncClient("alice", workspace, mom, storage, device_id=name)
            devices.append(device)
            device.start()
        assert consumer_threads() == [f"consumer-{skeleton.instance_id}.uni"]
    finally:
        for device in devices:
            device.stop()
        server.close()
        mom.close()
        metadata.close()
