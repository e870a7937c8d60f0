"""Shared fixtures: brokers, metadata, storage, and full testbeds."""

from __future__ import annotations

import os
import threading
import time
import uuid

import pytest

from repro.metadata import (
    MemoryMetadataBackend,
    ShardedMetadataBackend,
    SqliteMetadataBackend,
)
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.storage import SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService, Workspace
from repro.client import StackSyncClient


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail any test that leaves alive a thread it started.

    Autouse fixtures are set up first and torn down last, so every other
    fixture has already closed what it opened when the census runs.
    Stopping threads need a moment to exit, hence the bounded poll.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    while (
        leaked := [t for t in threading.enumerate() if t not in before]
    ) and time.monotonic() < deadline:
        time.sleep(0.005)
    assert not leaked, f"test left threads running: {[t.name for t in leaked]}"


def make_metadata_backend(kind: str):
    """Build a metadata engine by name (also consumed by CI's matrix)."""
    if kind == "memory":
        return MemoryMetadataBackend()
    if kind == "sqlite":
        return SqliteMetadataBackend(":memory:")
    if kind == "sharded":
        return ShardedMetadataBackend.memory(3)
    if kind == "sharded-sqlite":
        return ShardedMetadataBackend.sqlite(":memory:", 3)
    raise ValueError(f"unknown metadata backend {kind!r}")


@pytest.fixture
def mom():
    broker = MessageBroker()
    yield broker
    broker.close()


@pytest.fixture
def omq(mom):
    broker = Broker(mom)
    yield broker
    broker.close()


@pytest.fixture(params=["memory", "sqlite", "sharded", "sharded-sqlite"])
def metadata_backend(request):
    backend = make_metadata_backend(request.param)
    yield backend
    backend.close()


@pytest.fixture
def storage():
    return SwiftLikeStore(node_count=4, replicas=2)


class SyncTestbed:
    """A full single-process StackSync deployment for integration tests."""

    def __init__(self, users=("alice",), instances=1, backend=None):
        self.mom = MessageBroker()
        # CI's backend matrix swaps the engine under every integration
        # test via REPRO_METADATA_BACKEND without touching the tests.
        backend = backend or os.environ.get("REPRO_METADATA_BACKEND", "memory")
        self.metadata = make_metadata_backend(backend)
        self.storage = SwiftLikeStore(node_count=4, replicas=2)
        self.server_broker = Broker(self.mom)
        self.service = SyncService(self.metadata, self.server_broker)
        self.skeletons = [
            self.server_broker.bind(SYNC_SERVICE_OID, self.service)
            for _ in range(instances)
        ]
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
def testbed():
    bed = SyncTestbed()
    yield bed
    bed.close()
