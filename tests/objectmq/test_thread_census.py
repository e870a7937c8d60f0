"""A consumer costs a thread only once a message reaches it, and a reply
consumer never does.

Half the consumers of a deployment never receive a message — a listener's
unicast queue (its interface has only a multicast method), an instance's
private fanout queue — so binding must start no thread, and traffic
exactly the threads it reaches.  A broker's reply consumer is auto-ack:
its handler runs on the replying thread, so sync calls start no thread on
the caller's side.
"""

from __future__ import annotations

import threading

from repro.client import StackSyncClient
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker, Remote, async_method, remote_interface
from repro.storage import SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService, SyncServiceApi, Workspace
from repro.sync.interface import SYNC_SERVICE_PREFETCH, workspace_oid


@remote_interface
class SinkApi(Remote):
    @async_method
    def push(self, value):
        ...


class Sink:
    def __init__(self):
        self.got = threading.Event()

    def push(self, value):
        self.got.set()

    def notify_commit(self, notification):
        self.got.set()


def consumer_threads():
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("consumer-")
    )


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
    """The shape of the repo benchmark's ``commit_load.deploy``."""
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    server, receiver, client = Broker(mom), Broker(mom), Broker(mom)
    try:
        service = SyncService(metadata, server)
        server.bind(SYNC_SERVICE_OID, service, prefetch=SYNC_SERVICE_PREFETCH)
        metadata.create_user("alice")
        for n in range(32):
            metadata.create_workspace(Workspace(workspace_id=f"ws-{n}", owner="alice"))
            receiver.bind(workspace_oid(f"ws-{n}"), Sink())
        client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
        assert consumer_threads() == []
    finally:
        client.close()
        receiver.close()
        server.close()
        mom.close()
        metadata.close()


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
