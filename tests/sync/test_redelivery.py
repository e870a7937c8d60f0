"""§3.4 at-least-once delivery: commits stuck in a crashed SyncService
instance flow back to the shared queue and succeed on a survivor."""

from __future__ import annotations

import time

from repro.client import StackSyncClient
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.storage import SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService, Workspace


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_redelivered_commit_succeeds_on_surviving_instance():
    mom = MessageBroker()
    metadata = MemoryMetadataBackend()
    storage = SwiftLikeStore(node_count=2, replicas=2)
    metadata.create_user("alice")
    workspace = Workspace(workspace_id="ws", owner="alice")
    metadata.create_workspace(workspace)
    server = Broker(mom)
    service = SyncService(metadata, server)
    doomed = server.bind(SYNC_SERVICE_OID, service)

    client = StackSyncClient("alice", workspace, mom, storage, device_id="d1")
    client.start()

    # Simulate a crash mid-operation: the instance stops processing (the
    # skeleton's crash window — deliveries arrive but are never acked)
    # while its consumer registration lingers, as for a hung process.
    doomed._running = False
    meta = client.put_file("crash.txt", b"at least once")

    queue = mom.declare_queue(SYNC_SERVICE_OID)
    assert wait_for(lambda: queue.unacked_count == 1)
    assert client.applied_at(meta.item_id, meta.version) is None
    assert metadata.item_history(meta.item_id) == []

    # A survivor joins the pool; tearing down the crashed instance's
    # consumer requeues the commit at the head with redelivered=True.
    # (kill() is a no-op on an already-"crashed" skeleton, so re-arm the
    # flag first — the delivery stays unacked either way.)
    server.bind(SYNC_SERVICE_OID, service)
    doomed._running = True
    doomed.kill()

    assert client.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert queue.redelivered_count >= 1
    assert metadata.item_history(meta.item_id)[-1].version == 1
    assert client.fs.read("crash.txt") == b"at least once"

    client.stop()
    server.close()
    mom.close()
