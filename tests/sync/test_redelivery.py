"""§3.4 at-least-once delivery: commits stuck in a crashed SyncService
instance flow back to the shared queue and succeed on a survivor."""

from __future__ import annotations

import time

import pytest

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
    assert client.wait_for_version(meta.item_id, meta.version, timeout=0) is None
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


def test_a_commit_run_twice_gives_its_writer_no_conflicted_copy(testbed):
    """A commit redelivered after it was applied (its instance stopped
    between the notification and the ack) loses to the record it stored:
    its writer reads that as a confirmation, not a conflicted copy."""
    writer = testbed.client(device_id="dev-1")
    copies = []
    writer.on_conflict = lambda path, copy: copies.append((path, copy))
    meta = writer.put_file("a.txt", b"once")
    assert writer.wait_for_version(meta.item_id, meta.version, timeout=10)

    # The redelivered cast carries the very proposal that was stored.
    stored = testbed.metadata.item_history(meta.item_id)[-1]
    workspace_id = testbed.workspaces["alice"].workspace_id
    testbed.service.commit_request(workspace_id, writer.device_id, [stored], "replay")
    assert testbed.service.conflict_count == 0
    # One dispatch thread runs the workspace's notifications in order, so
    # once a later commit is applied the replay's notification was handled.
    later = writer.put_file("b.txt", b"later")
    assert writer.wait_for_version(later.item_id, later.version, timeout=10)
    assert copies == [] and writer.stats.conflicts == 0
    assert writer.fs.list_paths() == ["a.txt", "b.txt"]
    assert [m.version for m in testbed.metadata.item_history(meta.item_id)] == [1]



def _replay_then_sync(testbed, writer, reader, meta):
    """Run *meta*'s stored commit again, and return once *reader* has
    handled that replay's notification."""
    stored = testbed.metadata.item_history(meta.item_id)[-1]
    workspace_id = testbed.workspaces["alice"].workspace_id
    testbed.service.commit_request(workspace_id, writer.device_id, [stored], "replay")
    later = writer.put_file("later.txt", b"later")
    assert reader.wait_for_version(later.item_id, later.version, timeout=10)


def test_a_replay_leaves_another_devices_pending_edit_alone(testbed):
    """The replay goes to every device in the workspace: a reader must not
    apply it again over a local edit it has not yet committed."""
    writer = testbed.client(device_id="dev-1")
    reader = testbed.client(device_id="dev-2", batch_size=10)
    meta = writer.put_file("a.txt", b"once")
    assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)

    # The reader edits a.txt; the proposal waits in its unflushed batch.
    reader.put_file("a.txt", b"the reader's edit")
    _replay_then_sync(testbed, writer, reader, meta)
    assert reader.fs.read("a.txt") == b"the reader's edit"
    assert reader.local_db.get_by_path("a.txt").pending_version == 2

    # Its commit then goes through, and the writer gets the reader's edit.
    reader.flush()
    assert writer.wait_for_version(meta.item_id, 2, timeout=10)
    assert writer.fs.read("a.txt") == b"the reader's edit"
    assert reader.stats.conflicts == writer.stats.conflicts == 0


def test_a_replayed_delete_leaves_another_devices_new_file_alone(testbed):
    writer = testbed.client(device_id="dev-1")
    reader = testbed.client(device_id="dev-2", batch_size=10)
    writer.put_file("a.txt", b"once")
    meta = writer.delete_file("a.txt")
    assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)

    reader.put_file("a.txt", b"made again")
    _replay_then_sync(testbed, writer, reader, meta)
    assert reader.fs.read("a.txt") == b"made again"
    assert reader.local_db.get_by_path("a.txt").pending_version is not None
