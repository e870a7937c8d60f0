"""Unit tests for the SyncService commit logic (Algorithm 1)."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.errors import RemoteInvocationError, UnknownWorkspace
from repro.metadata import MemoryMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.sync import (
    SYNC_SERVICE_OID,
    RemoteWorkspaceApi,
    SyncServiceApi,
    SyncService,
    Workspace,
    workspace_oid,
)
from repro.sync.models import STATUS_CHANGED, STATUS_DELETED, ItemMetadata
from tests.conftest import make_metadata_backend


class NotificationSink:
    """Binds to the workspace fanout and records notifications."""

    def __init__(self):
        self.notifications = []

    def notify_commit(self, notification):
        self.notifications.append(notification)


@pytest.fixture
def rig():
    mom = MessageBroker()
    broker = Broker(mom)
    metadata = MemoryMetadataBackend()
    metadata.create_user("alice")
    workspace = Workspace(workspace_id="ws", owner="alice")
    metadata.create_workspace(workspace)
    service = SyncService(metadata, broker)
    sink = NotificationSink()
    broker.bind(workspace_oid("ws"), sink)
    yield metadata, service, sink
    broker.close()
    mom.close()


def proposal(version=1, status="NEW", device="dev-1", chunks=None):
    return ItemMetadata(
        item_id="ws:a.txt",
        workspace_id="ws",
        version=version,
        filename="a.txt",
        status=status,
        size=4,
        checksum="c" * 40,
        chunks=chunks if chunks is not None else ["f1" * 20],
        modified_at=1.0,
        device_id=device,
    )


def wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_commit_new_object_confirmed(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal()])
    assert metadata.item_history("ws:a.txt")[-1].version == 1
    assert wait_for(lambda: len(sink.notifications) == 1)
    notification = sink.notifications[0]
    assert notification.results[0].confirmed
    assert notification.source_device == "dev-1"


def test_commit_successor_version_confirmed(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    service.commit_request("ws", "dev-1", [proposal(2, STATUS_CHANGED)])
    assert metadata.item_history("ws:a.txt")[-1].version == 2
    assert wait_for(lambda: len(sink.notifications) == 2)


def test_stale_version_conflicts_with_piggybacked_current(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    service.commit_request("ws", "dev-1", [proposal(2, STATUS_CHANGED, chunks=["f2" * 20])])
    # dev-2 proposes v2 again (stale base): conflict.
    service.commit_request("ws", "dev-2", [proposal(2, STATUS_CHANGED, device="dev-2")])
    assert wait_for(lambda: len(sink.notifications) == 3)
    conflict = sink.notifications[2].results[0]
    assert not conflict.confirmed
    assert conflict.current is not None
    assert conflict.current.version == 2
    assert conflict.current.chunks == (b"\xf2" * 20,)  # losing client can reconstruct
    # First-writer-wins: the metadata back-end was never rolled back.
    assert metadata.item_history("ws:a.txt")[-1].version == 2
    assert service.conflict_count == 1


def test_duplicate_new_object_conflicts(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    service.commit_request("ws", "dev-2", [proposal(1, device="dev-2")])
    assert wait_for(lambda: len(sink.notifications) == 2)
    assert not sink.notifications[1].results[0].confirmed


def test_a_redelivered_commit_loses_to_itself_not_a_conflict(rig):
    """At-least-once delivery may run one commit twice: the replay of a
    proposal that is already the current version loses to that very record
    (which its writer reads as a confirmation) and is no conflict."""
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)], "r1")
    service.commit_request("ws", "dev-1", [proposal(1)], "r1")
    assert wait_for(lambda: len(sink.notifications) == 2)
    replay = sink.notifications[1].results[0]
    assert sink.notifications[1].request_id == "r1"
    assert not replay.confirmed and replay.current == replay.metadata
    assert service.conflict_count == 0
    assert [m.version for m in metadata.item_history("ws:a.txt")] == [1]
    # A different record at the same version still loses, even from the
    # same device.
    service.commit_request("ws", "dev-1", [proposal(1, chunks=["f3" * 20])], "r2")
    assert wait_for(lambda: len(sink.notifications) == 3)
    assert not sink.notifications[2].results[0].confirmed
    assert service.conflict_count == 1


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded", "sharded-sqlite"])
def test_a_replayed_bundle_loses_to_itself_on_every_engine(kind):
    """The replay check compares the proposal with the record the engine
    hands back, so each engine's round trip must give an equal record."""
    mom = MessageBroker()
    broker = Broker(mom)
    metadata = make_metadata_backend(kind)
    metadata.create_user("alice")
    metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
    service = SyncService(metadata, broker)
    sink = NotificationSink()
    broker.bind(workspace_oid("ws"), sink)
    other = ItemMetadata(item_id="ws:b.txt", workspace_id="ws", version=1,
                         filename="b.txt", device_id="dev-1")
    try:
        service.commit_request("ws", "dev-1", [proposal(1)], "r1")
        bundle = [proposal(2, STATUS_CHANGED, chunks=["f2" * 20, "f4" * 20]), other]
        for _ in range(2):
            service.commit_request("ws", "dev-1", bundle, "r2")
        assert wait_for(lambda: len(sink.notifications) == 3)
        replays = sink.notifications[2].results
        assert [(r.confirmed, r.current == r.metadata) for r in replays] == [(False, True)] * 2
        assert service.conflict_count == 0
        assert [m.version for m in metadata.item_history("ws:a.txt")] == [1, 2]
        # The replay of v1 came after v2: a conflict, with v2 piggybacked.
        service.commit_request("ws", "dev-1", [proposal(1)], "r1")
        assert wait_for(lambda: len(sink.notifications) == 4)
        late = sink.notifications[3].results[0]
        assert not late.confirmed and late.current.version == 2
        assert service.conflict_count == 1
    finally:
        broker.close()
        mom.close()
        metadata.close()


def test_a_replayed_delete_loses_to_itself(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    for _ in range(2):
        service.commit_request("ws", "dev-1", [proposal(2, STATUS_DELETED, chunks=[])])
    assert wait_for(lambda: len(sink.notifications) == 3)
    assert [n.results[0].confirmed for n in sink.notifications] == [True, True, False]
    assert sink.notifications[2].results[0].current == sink.notifications[2].results[0].metadata
    assert service.conflict_count == 0
    assert [m.status for m in metadata.item_history("ws:a.txt")] == ["NEW", STATUS_DELETED]
    assert metadata.get_workspace_state("ws") == []


def test_batch_commit_mixed_outcomes(rig):
    metadata, service, sink = rig
    other = ItemMetadata(
        item_id="ws:b.txt",
        workspace_id="ws",
        version=1,
        filename="b.txt",
        device_id="dev-1",
    )
    service.commit_request("ws", "dev-1", [proposal(1)])
    # Batch: one conflicting (another v1), one fresh.
    service.commit_request("ws", "dev-1", [proposal(1, chunks=["f3" * 20]), other])
    assert wait_for(lambda: len(sink.notifications) == 2)
    results = sink.notifications[1].results
    assert [r.confirmed for r in results] == [False, True]


def test_delete_version_recorded(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    service.commit_request("ws", "dev-1", [proposal(2, STATUS_DELETED, chunks=[])])
    assert metadata.item_history("ws:a.txt")[-1].status == STATUS_DELETED
    assert metadata.get_workspace_state("ws") == []


def test_unknown_workspace_rejected(rig):
    _metadata, service, _sink = rig
    with pytest.raises(UnknownWorkspace):
        service.commit_request("ghost", "dev-1", [proposal(1)])


@pytest.mark.parametrize("items", [1, 8, 0])
@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded"])
def test_unknown_workspace_stores_and_notifies_nothing(kind, items):
    """The engine's own check is the only one a non-empty bundle gets; an
    empty bundle gives the engine no workspace to look at, so the service asks."""
    mom = MessageBroker()
    broker = Broker(mom)
    metadata = make_metadata_backend(kind)
    service = SyncService(metadata, broker)
    sink = NotificationSink()
    broker.bind(workspace_oid("ghost"), sink)
    bundle = [
        ItemMetadata(item_id=f"ghost:f{i}", workspace_id="ghost", version=1, filename=f"f{i}")
        for i in range(items)
    ]
    try:
        with pytest.raises(UnknownWorkspace):
            service.commit_request("ghost", "dev-1", bundle)
        assert all(metadata.item_history(item.item_id) == [] for item in bundle)
        assert service.commit_count == 0
        time.sleep(0.05)
        assert sink.notifications == []
        assert mom.queue_stats(workspace_oid("ghost"))["published"] == 0
    finally:
        broker.close()
        mom.close()
        metadata.close()


def test_get_workspaces_and_changes(rig):
    metadata, service, _sink = rig
    assert [w.workspace_id for w in service.get_workspaces("alice")] == ["ws"]
    assert service.get_workspaces("nobody") == []
    service.commit_request("ws", "dev-1", [proposal(1)])
    state = service.get_changes("ws")
    assert len(state) == 1 and state[0].item_id == "ws:a.txt"


def test_service_delay_hook(rig):
    metadata, service, _sink = rig
    service = SyncService(metadata, service.broker, service_delay=lambda: 0.05)
    started = time.monotonic()
    service.commit_request("ws", "dev-1", [proposal(1)])
    assert time.monotonic() - started >= 0.05


def test_commit_count_statistics(rig):
    _metadata, service, _sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    service.commit_request("ws", "dev-1", [proposal(2, STATUS_CHANGED)])
    assert service.commit_count == 2


def test_bundle_commits_successive_versions_of_one_item(rig):
    """A bundled commitRequest may carry v1 and v2 of the same item; the
    second proposal sees the first inside the same transaction."""
    metadata, service, sink = rig
    service.commit_request(
        "ws", "dev-1", [proposal(1), proposal(2, STATUS_CHANGED)]
    )
    assert wait_for(lambda: len(sink.notifications) == 1)
    assert [r.confirmed for r in sink.notifications[0].results] == [True, True]
    assert metadata.item_history("ws:a.txt")[-1].version == 2


def test_bundle_conflict_piggybacks_winner_to_loser(rig):
    metadata, service, sink = rig
    service.commit_request("ws", "dev-1", [proposal(1)])
    service.commit_request("ws", "dev-2", [proposal(1, device="dev-2")])
    assert wait_for(lambda: len(sink.notifications) == 2)
    result = sink.notifications[1].results[0]
    assert not result.confirmed
    assert result.current is not None
    assert result.current.device_id == "dev-1"
    assert service.conflict_count == 1


def _commits_through_a_proxy(request_id_by_keyword):
    """Three ``commit_request`` casts, the last one a conflict: the history
    and the notifications they leave."""
    mom = MessageBroker()
    server, client = Broker(mom), Broker(mom)
    metadata = MemoryMetadataBackend()
    metadata.create_user("alice")
    metadata.create_workspace(Workspace(workspace_id="ws", owner="alice"))
    sink = NotificationSink()
    try:
        server.bind(SYNC_SERVICE_OID, SyncService(metadata, server))
        server.bind(workspace_oid("ws"), sink)
        proxy = client.lookup(SYNC_SERVICE_OID, SyncServiceApi)
        casts = [(proposal(1), "r1"), (proposal(2, STATUS_CHANGED), "r2"),
                 (proposal(2, STATUS_CHANGED, device="dev-2"), "r3")]
        for item, request_id in casts:
            if request_id_by_keyword:
                proxy.commit_request("ws", item.device_id, [item], request_id=request_id)
            else:
                proxy.commit_request("ws", item.device_id, [item], request_id)
        assert wait_for(lambda: len(sink.notifications) == 3)
        # The commit time is the one field a rerun may change.
        return metadata.item_history("ws:a.txt"), [
            dataclasses.replace(n, committed_at=0.0) for n in sink.notifications]
    finally:
        client.close()
        server.close()
        mom.close()


def test_a_keyword_commit_request_leaves_the_history_a_positional_one_does():
    history, notifications = _commits_through_a_proxy(request_id_by_keyword=True)
    assert (history, notifications) == _commits_through_a_proxy(request_id_by_keyword=False)
    assert [n.request_id for n in notifications] == ["r1", "r2", "r3"]
    assert [n.results[0].confirmed for n in notifications] == [True, True, False]
    assert [item.version for item in history] == [1, 2]
