"""Tests for the mark-and-sweep chunk garbage collector."""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.metadata import MemoryMetadataBackend
from repro.storage import SwiftLikeStore
from repro.storage.gc import ChunkGarbageCollector
from repro.sync.models import STATUS_CHANGED, STATUS_DELETED, ItemMetadata, Workspace


def furnish(metadata):
    storage = SwiftLikeStore(node_count=2, replicas=1)
    metadata.create_user("u")
    metadata.create_workspace(Workspace(workspace_id="ws", owner="u"))
    storage.create_container("u-u")
    return metadata, storage


@pytest.fixture
def world():
    return furnish(MemoryMetadataBackend())


def name(label):
    """The store name of chunk *label*: the hex of its fingerprint."""
    return hashlib.sha1(label.encode()).hexdigest()


def put_chunks(storage, *labels):
    for label in labels:
        storage.put_object("u-u", name(label), b"x" * 100)


def commit(metadata, item_id, version, chunks, status="NEW"):
    meta = ItemMetadata(
        item_id=item_id,
        workspace_id="ws",
        version=version,
        filename=item_id.split(":")[-1],
        status=status,
        chunks=[hashlib.sha1(label.encode()).digest() for label in chunks],
        device_id="d",
    )
    assert metadata.store_versions_bulk([meta]) == [(True, None)]


def test_live_chunks_survive(world):
    metadata, storage = world
    put_chunks(storage, "f1", "f2")
    commit(metadata, "ws:a", 1, ["f1", "f2"])
    gc = ChunkGarbageCollector(metadata, storage, grace_seconds=0.0)
    report = gc.collect("u-u", ["ws"])
    assert report.swept_chunks == 0
    assert name("f1") in storage.list_container("u-u")
    assert report.live_chunks == 2


def test_orphaned_chunks_swept(world):
    metadata, storage = world
    put_chunks(storage, "live", "orphan")
    commit(metadata, "ws:a", 1, ["live"])
    gc = ChunkGarbageCollector(metadata, storage, grace_seconds=0.0)
    report = gc.collect("u-u", ["ws"])
    assert report.swept == [name("orphan")]
    assert report.swept_bytes == 100
    assert name("orphan") not in storage.list_container("u-u")
    assert name("live") in storage.list_container("u-u")


def test_old_versions_collected_with_keep_versions_one(world):
    metadata, storage = world
    put_chunks(storage, "v1chunk", "v2chunk")
    commit(metadata, "ws:a", 1, ["v1chunk"])
    commit(metadata, "ws:a", 2, ["v2chunk"], status=STATUS_CHANGED)
    gc = ChunkGarbageCollector(metadata, storage, keep_versions=1, grace_seconds=0.0)
    report = gc.collect("u-u", ["ws"])
    assert report.swept == [name("v1chunk")]
    assert name("v2chunk") in storage.list_container("u-u")


def test_keep_versions_two_preserves_history(world):
    metadata, storage = world
    put_chunks(storage, "v1chunk", "v2chunk")
    commit(metadata, "ws:a", 1, ["v1chunk"])
    commit(metadata, "ws:a", 2, ["v2chunk"], status=STATUS_CHANGED)
    gc = ChunkGarbageCollector(metadata, storage, keep_versions=2, grace_seconds=0.0)
    assert gc.collect("u-u", ["ws"]).swept_chunks == 0


def test_deleted_items_chunks_collected(world):
    metadata, storage = world
    put_chunks(storage, "gone")
    commit(metadata, "ws:a", 1, ["gone"])
    commit(metadata, "ws:a", 2, [], status=STATUS_DELETED)
    gc = ChunkGarbageCollector(metadata, storage, grace_seconds=0.0)
    report = gc.collect("u-u", ["ws"])
    assert report.swept == [name("gone")]


def test_grace_window_protects_in_flight_uploads(world):
    metadata, storage = world
    put_chunks(storage, "just-uploaded")  # no commit yet (in-flight)
    gc = ChunkGarbageCollector(metadata, storage, grace_seconds=3600.0)
    report = gc.collect("u-u", ["ws"])
    assert report.swept_chunks == 0
    assert report.kept_recent == 1
    # Once the grace window passes (simulated via now), it is swept.
    report = gc.collect("u-u", ["ws"], now=time.time() + 7200.0)
    assert report.swept == [name("just-uploaded")]


def test_dry_run_reports_without_deleting(world):
    metadata, storage = world
    put_chunks(storage, "orphan")
    gc = ChunkGarbageCollector(metadata, storage, grace_seconds=0.0)
    report = gc.collect("u-u", ["ws"], dry_run=True)
    assert report.swept == [name("orphan")]
    assert name("orphan") in storage.list_container("u-u")


def test_shared_chunks_across_items_kept(world):
    metadata, storage = world
    put_chunks(storage, "shared")
    commit(metadata, "ws:a", 1, ["shared"])
    commit(metadata, "ws:b", 1, ["shared"])
    commit(metadata, "ws:a", 2, [], status=STATUS_DELETED)
    gc = ChunkGarbageCollector(metadata, storage, grace_seconds=0.0)
    # Item b still references the chunk: it must survive a's deletion.
    assert gc.collect("u-u", ["ws"]).swept_chunks == 0


def test_keep_versions_validation(world):
    metadata, storage = world
    with pytest.raises(ValueError):
        ChunkGarbageCollector(metadata, storage, keep_versions=0)


def test_end_to_end_with_real_client(testbed):
    """GC after real client activity: deletes reclaim space, live data stays."""
    client = testbed.client(device_id="dev-1")
    meta_keep = client.put_file("keep.txt", b"K" * 1000)
    meta_gone = client.put_file("gone.txt", b"G" * 1000)
    client.wait_for_version(meta_keep.item_id, meta_keep.version)
    client.wait_for_version(meta_gone.item_id, meta_gone.version)
    deletion = client.delete_file("gone.txt")
    client.wait_for_version(deletion.item_id, deletion.version)

    gc = ChunkGarbageCollector(testbed.metadata, testbed.storage, grace_seconds=0.0)
    container = f"u-{testbed.workspaces['alice'].owner}"
    report = gc.collect(container, [testbed.workspaces["alice"].workspace_id])
    assert report.swept_chunks == 1  # gone.txt's single chunk
    # keep.txt still fully reconstructable.
    late = testbed.client(device_id="dev-2")
    assert late.fs.read("keep.txt") == b"K" * 1000


def test_sweep_spares_every_chunk_a_live_version_references(metadata_backend):
    """The store names chunks in hex and the engines hold digests as bytes:
    a sweep comparing the two unconverted would delete every live chunk."""
    metadata, storage = furnish(metadata_backend)
    labels = [f"chunk-{n}" for n in range(8)]
    put_chunks(storage, *labels)
    commit(metadata, "ws:a", 1, labels[:5])
    commit(metadata, "ws:b", 1, labels[5:])
    report = ChunkGarbageCollector(metadata, storage, grace_seconds=0.0).collect(
        "u-u", ["ws"]
    )
    assert (report.live_chunks, report.swept_chunks) == (8, 0)
    assert all(name(label) in storage.list_container("u-u") for label in labels)
