"""Tests for the multi-workspace StackSyncDevice."""

from __future__ import annotations

import time

import pytest

from repro.client.device import StackSyncDevice
from repro.objectmq import Broker
from repro.sync import SYNC_SERVICE_OID, SyncServiceApi, Workspace


@pytest.fixture
def multi_ws(testbed):
    """alice with two workspaces, plus an admin proxy."""
    second = Workspace(workspace_id="ws-second", owner="alice")
    testbed.metadata.create_workspace(second)
    admin = Broker(testbed.mom)
    proxy = admin.lookup(SYNC_SERVICE_OID, SyncServiceApi)
    yield testbed, proxy
    admin.close()


def test_device_discovers_all_workspaces(multi_ws):
    testbed, _proxy = multi_ws
    device = StackSyncDevice("alice", "laptop", testbed.mom, testbed.storage)
    ids = device.start()
    assert len(ids) == 2
    assert "ws-second" in ids
    device.stop()


def test_workspaces_sync_independently(multi_ws):
    testbed, _proxy = multi_ws
    laptop = StackSyncDevice("alice", "laptop", testbed.mom, testbed.storage)
    phone = StackSyncDevice("alice", "phone", testbed.mom, testbed.storage)
    laptop.start()
    phone.start()

    first, second = laptop.workspace_ids()
    meta_a = laptop.client_for(first).put_file("a.txt", b"in first")
    meta_b = laptop.client_for(second).put_file("b.txt", b"in second")
    assert phone.client_for(first).wait_for_version(
        meta_a.item_id, meta_a.version, timeout=10
    )
    assert phone.client_for(second).wait_for_version(
        meta_b.item_id, meta_b.version, timeout=10
    )
    # Strict isolation: files do not leak across workspaces.
    assert "b.txt" not in phone.fs_for(first).list_paths()
    assert "a.txt" not in phone.fs_for(second).list_paths()
    laptop.stop()
    phone.stop()


def test_refresh_attaches_newly_shared_workspace(multi_ws):
    testbed, proxy = multi_ws
    testbed.metadata.create_user("bob")
    bob_device = StackSyncDevice("bob", "bob-laptop", testbed.mom, testbed.storage)
    assert bob_device.start() == []

    # Alice shares her workspace; bob refreshes and starts receiving.
    shared_id = testbed.workspaces["alice"].workspace_id
    proxy.share_workspace(shared_id, "bob")
    assert shared_id in bob_device.refresh()

    alice_device = StackSyncDevice("alice", "alice-laptop", testbed.mom, testbed.storage)
    alice_device.start()
    meta = alice_device.client_for(shared_id).put_file("hello.txt", b"hi bob")
    assert bob_device.client_for(shared_id).wait_for_version(
        meta.item_id, meta.version, timeout=10
    )
    assert bob_device.fs_for(shared_id).read("hello.txt") == b"hi bob"
    alice_device.stop()
    bob_device.stop()


def test_client_for_unknown_workspace_raises(multi_ws):
    testbed, _proxy = multi_ws
    device = StackSyncDevice("alice", "laptop", testbed.mom, testbed.storage)
    device.start()
    with pytest.raises(KeyError):
        device.client_for("nope")
    device.stop()


def test_a_device_syncs_what_it_scans_in_every_workspace(multi_ws):
    testbed, _proxy = multi_ws
    laptop = StackSyncDevice("alice", "laptop", testbed.mom, testbed.storage)
    phone = StackSyncDevice("alice", "phone", testbed.mom, testbed.storage)
    laptop.start()
    phone.start()
    first, second = laptop.workspace_ids()
    laptop.fs_for(first).write("x.txt", b"1")
    laptop.fs_for(second).write("y.txt", b"2")
    scanned = [laptop.client_for(ws).watcher.scan_once() for ws in (first, second)]
    assert [len(events) for events in scanned] == [1, 1]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and not (
        "x.txt" in phone.fs_for(first).list_paths()
        and "y.txt" in phone.fs_for(second).list_paths()
    ):
        time.sleep(0.05)
    assert "x.txt" in phone.fs_for(first).list_paths()
    assert "y.txt" in phone.fs_for(second).list_paths()
    laptop.stop()
    phone.stop()


def test_refresh_requires_start(testbed):
    device = StackSyncDevice("alice", "laptop", testbed.mom, testbed.storage)
    with pytest.raises(RuntimeError):
        device.refresh()
