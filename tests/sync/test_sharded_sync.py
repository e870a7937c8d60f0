"""End-to-end sync through the workspace-partitioned commit path."""

from __future__ import annotations

import uuid

import pytest

from repro.client import StackSyncClient
from repro.metadata import ShardedMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker, shard_oid
from repro.storage import SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService, Workspace

SHARDS = 3


class ShardedTestbed:
    """Full deployment with per-shard request queues and a sharded DAO."""

    def __init__(self, users=("alice", "bob")):
        self.mom = MessageBroker()
        self.metadata = ShardedMetadataBackend.memory(SHARDS)
        self.storage = SwiftLikeStore(node_count=4, replicas=2)
        self.server_broker = Broker(self.mom)
        # One instance per shard queue; each holds the whole composite
        # (the DAO routes internally), the queue decides which commits
        # it serializes.
        self.services = []
        self.skeletons = []
        for shard in range(SHARDS):
            service = SyncService(self.metadata, self.server_broker)
            self.services.append(service)
            self.skeletons.append(
                self.server_broker.bind(shard_oid(SYNC_SERVICE_OID, shard), service)
            )
        self.workspaces = {}
        for user in users:
            self.metadata.create_user(user)
            workspace = Workspace(
                workspace_id=f"ws-{user}-{uuid.uuid4().hex[:6]}", owner=user
            )
            self.metadata.create_workspace(workspace)
            self.workspaces[user] = workspace
        self.clients = []

    def client(self, user="alice", device_id=None, **kwargs) -> StackSyncClient:
        client = StackSyncClient(
            user,
            self.workspaces[user],
            self.mom,
            self.storage,
            device_id=device_id,
            shards=SHARDS,
            **kwargs,
        )
        client.start()
        self.clients.append(client)
        return client

    def close(self):
        for client in self.clients:
            client.stop()
        self.server_broker.close()
        self.mom.close()


@pytest.fixture
def sharded_bed():
    bed = ShardedTestbed()
    yield bed
    bed.close()


def test_two_devices_sync_through_sharded_path(sharded_bed):
    laptop = sharded_bed.client("alice", device_id="laptop")
    phone = sharded_bed.client("alice", device_id="phone")
    meta = laptop.put_file("notes.txt", b"hello sharded world")
    assert phone.wait_for_version(meta.item_id, meta.version, timeout=10) is not None
    assert phone.fs.read("notes.txt") == b"hello sharded world"


def test_workspaces_of_different_users_land_on_their_hashed_shards(sharded_bed):
    alice = sharded_bed.client("alice", device_id="a1")
    bob = sharded_bed.client("bob", device_id="b1")
    meta_a = alice.put_file("a.txt", b"from alice")
    meta_b = bob.put_file("b.txt", b"from bob")
    assert alice.wait_for_version(meta_a.item_id, meta_a.version, timeout=10)
    assert bob.wait_for_version(meta_b.item_id, meta_b.version, timeout=10)

    backend = sharded_bed.metadata
    for workspace in (
        sharded_bed.workspaces["alice"],
        sharded_bed.workspaces["bob"],
    ):
        owner_shard = backend.shard_for_workspace(workspace.workspace_id)
        for shard, engine in enumerate(backend.engines):
            assert engine.workspace_exists(workspace.workspace_id) == (
                shard == owner_shard
            )


def test_conflict_resolution_still_works_when_sharded(sharded_bed):
    laptop = sharded_bed.client("alice", device_id="laptop")
    phone = sharded_bed.client("alice", device_id="phone")
    meta = laptop.put_file("doc.txt", b"v1")
    assert phone.wait_for_version(meta.item_id, meta.version, timeout=10)

    # Both devices propose version 2: the first writer wins, the loser
    # keeps a conflicted copy — semantics unchanged by partitioning.
    laptop_meta = laptop.put_file("doc.txt", b"laptop v2")
    assert phone.wait_for_version(laptop_meta.item_id, 2, timeout=10)
    history = sharded_bed.metadata.item_history(meta.item_id)
    assert [m.version for m in history] == [1, 2]


def test_client_commits_route_to_the_owning_shard_queue(sharded_bed):
    client = sharded_bed.client("alice", device_id="laptop")
    workspace_id = sharded_bed.workspaces["alice"].workspace_id
    expected = client.sync_service.shard_for(workspace_id)

    def published():
        return [
            sharded_bed.mom.queue_stats(shard_oid(SYNC_SERVICE_OID, shard))["published"]
            for shard in range(SHARDS)
        ]

    before = published()
    meta = client.put_file("routed.txt", b"x")
    assert client.wait_for_version(meta.item_id, meta.version, timeout=10)
    after = published()
    assert after[expected] > before[expected]
    assert all(after[k] == before[k] for k in range(SHARDS) if k != expected)
