"""Integration tests: full StackSync stack, multiple devices (§4-5.2)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.client import StackSyncClient, conflicted_copy_name
from repro.client.chunker import FixedChunker
from repro.errors import SyncError
from repro.sync.models import CommitNotification, CommitResult, ItemMetadata


@pytest.mark.parametrize("user", ["bob", "ghost"], ids=["no-access", "unknown-user"])
def test_start_without_the_workspace_raises_sync_error(testbed, user):
    """A user without the workspace, known or not, gets no such workspace
    from ``get_workspaces``, and that stops ``start`` before ``get_changes``."""
    if user == "bob":
        testbed.metadata.create_user("bob")
    client = StackSyncClient(user, testbed.workspaces["alice"], testbed.mom, testbed.storage)
    try:
        with pytest.raises(SyncError, match="no access"):
            client.start()
        assert not client.started
    finally:
        client.stop()


def test_add_propagates_to_all_devices(testbed):
    c1 = testbed.client(device_id="dev-1")
    c2 = testbed.client(device_id="dev-2")
    c3 = testbed.client(device_id="dev-3")

    meta = c1.put_file("docs/report.txt", b"final version " * 100)
    for client in (c2, c3):
        assert client.wait_for_version(meta.item_id, meta.version, timeout=10)
        assert client.fs.read("docs/report.txt") == b"final version " * 100


def test_update_propagates(testbed):
    c1 = testbed.client(device_id="dev-1")
    c2 = testbed.client(device_id="dev-2")
    meta1 = c1.put_file("a.txt", b"v1")
    assert c2.wait_for_version(meta1.item_id, 1, timeout=10)
    meta2 = c1.put_file("a.txt", b"v2 content")
    assert meta2.version == 2
    assert c2.wait_for_version(meta2.item_id, 2, timeout=10)
    assert c2.fs.read("a.txt") == b"v2 content"


def test_remove_propagates(testbed):
    c1 = testbed.client(device_id="dev-1")
    c2 = testbed.client(device_id="dev-2")
    meta = c1.put_file("bye.txt", b"x")
    assert c2.wait_for_version(meta.item_id, 1, timeout=10)
    deletion = c2.delete_file("bye.txt")
    assert c1.wait_for_version(deletion.item_id, deletion.version, timeout=10)
    assert not c1.fs.exists("bye.txt")


def test_late_joiner_gets_full_state(testbed):
    c1 = testbed.client(device_id="dev-1")
    metas = [c1.put_file(f"f{i}.txt", f"content {i}".encode()) for i in range(5)]
    for meta in metas:
        assert c1.wait_for_version(meta.item_id, meta.version, timeout=10)
    c2 = testbed.client(device_id="dev-2")
    assert set(c2.fs.list_paths()) == {f"f{i}.txt" for i in range(5)}
    assert c2.fs.read("f3.txt") == b"content 3"


def test_conflict_creates_conflicted_copy(testbed):
    c1 = testbed.client(device_id="dev-1")
    c2 = testbed.client(device_id="dev-2")
    base = c1.put_file("shared.txt", b"base")
    assert c2.wait_for_version(base.item_id, 1, timeout=10)

    # Both propose version 2 from the same base.
    c1.put_file("shared.txt", b"from dev-1")
    c2.put_file("shared.txt", b"from dev-2")
    time.sleep(1.0)

    # Exactly one device holds a conflicted copy; both converge on the
    # winner's content for the original path.
    conflicts = c1.stats.conflicts + c2.stats.conflicts
    assert conflicts == 1
    assert c1.fs.read("shared.txt") == c2.fs.read("shared.txt")
    loser = c1 if c1.stats.conflicts else c2
    copy_name = conflicted_copy_name("shared.txt", loser.device_id)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and not (
        c1.fs.exists(copy_name) and c2.fs.exists(copy_name)
    ):
        time.sleep(0.05)
    assert c1.fs.exists(copy_name) and c2.fs.exists(copy_name)


def test_dedup_avoids_reupload(testbed):
    client = testbed.client(device_id="dev-1", chunker=FixedChunker(chunk_size=1024))
    content = bytes(range(256)) * 8  # 2 chunks of 1 KB
    client.put_file("one.bin", content)
    puts_after_first = testbed.storage.put_count
    # Identical content under a different name: all chunks dedup away.
    client.put_file("two.bin", content)
    assert testbed.storage.put_count == puts_after_first


def test_multiple_service_instances_share_load():
    from tests.conftest import SyncTestbed

    bed = SyncTestbed(instances=3)
    try:
        c1 = bed.client(device_id="dev-1")
        c2 = bed.client(device_id="dev-2")
        metas = [c1.put_file(f"f{i}.txt", b"data") for i in range(10)]
        for meta in metas:
            assert c2.wait_for_version(meta.item_id, meta.version, timeout=10)
        assert bed.service.commit_count == 10
    finally:
        bed.close()


def test_service_instance_crash_does_not_lose_commits(testbed):
    """§3.4: kill the only SyncService instance mid-stream; a replacement
    drains the queued commits (at-least-once)."""
    c1 = testbed.client(device_id="dev-1")
    c2 = testbed.client(device_id="dev-2")
    # Kill the single instance: commits now pile up in the global queue.
    testbed.server_broker.unbind(testbed.skeletons[0])
    meta = c1.put_file("resilient.txt", b"survives")
    time.sleep(0.3)
    assert c2.applied_at(meta.item_id, meta.version) is None
    # Bind a replacement instance: the queued commit is processed.
    testbed.server_broker.bind("syncservice", testbed.service)
    assert c2.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert c2.fs.read("resilient.txt") == b"survives"


def test_watcher_driven_sync(testbed):
    """End-to-end via the watcher path instead of explicit put_file."""
    c1 = testbed.client(device_id="dev-1")
    c2 = testbed.client(device_id="dev-2")
    c1.fs.write("auto.txt", b"detected")
    events = c1.scan()
    assert len(events) == 1
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and not c2.fs.exists("auto.txt"):
        time.sleep(0.05)
    assert c2.fs.read("auto.txt") == b"detected"


def test_sharing_across_users():
    from tests.conftest import SyncTestbed

    bed = SyncTestbed(users=("alice",))
    try:
        bed.metadata.create_user("bob")
        bed.metadata.grant_access(bed.workspaces["alice"].workspace_id, "bob")
        alice_dev = bed.client("alice", device_id="alice-dev")
        # Bob joins alice's workspace with his own client.
        from repro.client import StackSyncClient

        bob_dev = StackSyncClient(
            "bob", bed.workspaces["alice"], bed.mom, bed.storage, device_id="bob-dev"
        )
        bob_dev.start()
        bed.clients.append(bob_dev)
        meta = alice_dev.put_file("shared/doc.txt", b"hello bob")
        assert bob_dev.wait_for_version(meta.item_id, meta.version, timeout=10)
        assert bob_dev.fs.read("shared/doc.txt") == b"hello bob"
    finally:
        bed.close()


def test_batched_commits(testbed):
    client = testbed.client(device_id="dev-1", batch_size=5)
    other = testbed.client(device_id="dev-2")
    metas = [client.put_file(f"b{i}.txt", b"x") for i in range(5)]
    # The 5th put triggers the flush of one bundled commitRequest.
    for meta in metas:
        assert other.wait_for_version(meta.item_id, meta.version, timeout=10)
    assert client.stats.commits_sent == 1


def test_consumer_threads_count_under_the_stats_lock(testbed):
    """Notifications and conflicts are counted on consumer threads; a scrape
    holding the stats lock sees neither counter move until it lets go."""
    client = testbed.client(device_id="dev-1")
    workspace_id = testbed.workspaces["alice"].workspace_id
    lost = ItemMetadata(
        workspace_id, 2, "gone.txt",
        status="CHANGED", device_id="dev-1",
    )
    notification = CommitNotification(
        workspace_id, "dev-1", [CommitResult(metadata=lost, confirmed=False)]
    )
    workers = [
        threading.Thread(target=client._on_notification, args=(notification,))
        for _ in range(4)
    ]
    with client.stats._lock:
        for worker in workers:
            worker.start()
        time.sleep(0.2)
        assert all(worker.is_alive() for worker in workers)
        assert (client.stats.notifications_received, client.stats.conflicts) == (0, 0)
    for worker in workers:
        worker.join(5)
    scraped = client.stats.scrape()
    assert (scraped["notifications_received"], scraped["conflicts"]) == (4, 4)
