"""Cross-subsystem resilience: storage failures and lost SyncService
instances during sync."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.objectmq import Broker
from repro.sync import SYNC_SERVICE_OID

from tests.conftest import SyncTestbed
from tests.mom.test_broker_server import wait_for


def test_storage_node_failure_transparent_to_clients(testbed):
    """With 2 replicas, losing one storage node is invisible to sync."""
    c1 = testbed.client(device_id="d1")
    meta = c1.put_file("replicated.txt", b"R" * 2000)
    c1.wait_for_version(meta.item_id, meta.version)

    # Fail the primary holder of the file's chunk.
    chunk = meta.chunks[0]
    key = f"u-alice/{chunk}"
    primary = testbed.storage.ring.primary_for(key)
    testbed.storage.fail_node(primary)

    # A late joiner still reconstructs the file from the replica.
    c2 = testbed.client(device_id="d2")
    assert c2.fs.read("replicated.txt") == b"R" * 2000
    testbed.storage.recover_node(primary)


def test_total_storage_outage_surfaces_but_metadata_survives(testbed):
    c1 = testbed.client(device_id="d1")
    meta = c1.put_file("doomed.txt", b"D" * 1000)
    c1.wait_for_version(meta.item_id, meta.version)

    for node in list(testbed.storage.nodes):
        testbed.storage.fail_node(node)
    # Uploads now fail loudly at the client.
    with pytest.raises(StorageError):
        c1.put_file("new.txt", b"N" * 1000)
    for node in list(testbed.storage.nodes):
        testbed.storage.recover_node(node)
    # After recovery the client syncs normally again.
    meta2 = c1.put_file("recovered.txt", b"OK")
    assert c1.wait_for_version(meta2.item_id, meta2.version, timeout=10)


def test_notification_storm_many_devices(testbed):
    """One commit fans out to many devices; all converge."""
    writer = testbed.client(device_id="writer")
    readers = [testbed.client(device_id=f"r{i}") for i in range(8)]
    meta = writer.put_file("broadcast.txt", b"to everyone")
    for reader in readers:
        assert reader.wait_for_version(meta.item_id, meta.version, timeout=15)
        assert reader.fs.read("broadcast.txt") == b"to everyone"


def test_sync_continues_after_a_sync_service_instance_is_killed():
    """Losing one of two instances costs capacity, never a commit."""
    bed = SyncTestbed(instances=2)
    try:
        writer = bed.client(device_id="writer")
        reader = bed.client(device_id="reader")
        bed.skeletons[0].kill()
        assert bed.mom.queue_stats(SYNC_SERVICE_OID)["consumers"] == 1
        metas = [writer.put_file(f"f{i}.txt", f"after {i}".encode()) for i in range(3)]
        for i, meta in enumerate(metas):
            assert reader.wait_for_version(meta.item_id, meta.version, timeout=10)
            assert reader.fs.read(f"f{i}.txt") == f"after {i}".encode()
    finally:
        bed.close()


def test_a_commit_made_while_no_instance_is_bound_waits_for_the_next_one(testbed):
    """The whole server side goes away and comes back on the same MOM: a
    commit made in the gap waits in the SyncService queue, not lost."""
    writer = testbed.client(device_id="writer")
    reader = testbed.client(device_id="reader")
    before = writer.put_file("before.txt", b"first server")
    assert reader.wait_for_version(before.item_id, before.version, timeout=10)
    # The notification goes out before the commit is acked; closing the
    # server in between would (rightly) redeliver that commit as well.
    queue = testbed.mom.declare_queue(SYNC_SERVICE_OID)
    assert wait_for(lambda: queue.unacked_count == len(queue) == 0, timeout=5.0)
    testbed.server_broker.close()

    gap = writer.put_file("gap.txt", b"no server")
    assert testbed.mom.queue_stats(SYNC_SERVICE_OID)["ready"] == 1
    assert writer.applied_at(gap.item_id, gap.version) is None

    server = Broker(testbed.mom)
    try:
        server.bind(SYNC_SERVICE_OID, testbed.service)
        assert writer.wait_for_version(gap.item_id, gap.version, timeout=10)
        assert reader.wait_for_version(gap.item_id, gap.version, timeout=10)
        assert reader.fs.read("gap.txt") == b"no server"
        assert reader.fs.read("before.txt") == b"first server"
    finally:
        server.close()
