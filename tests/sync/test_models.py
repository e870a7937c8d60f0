"""Tests for the protocol DTOs."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.metadata import MemoryMetadataBackend
from repro.objectmq.envelope import make_reply, make_request
from repro.serialization import PickleSerializer
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    STATUS_NEW,
    CommitNotification,
    CommitResult,
    ItemMetadata,
    Workspace,
    pack_item,
    unpack_item,
)


def make_item(**overrides):
    base = dict(
        item_id="ws:a.txt",
        workspace_id="ws",
        version=1,
        filename="a.txt",
        status=STATUS_NEW,
        size=5,
        checksum="c" * 40,
        chunks=["f1" * 20],
        modified_at=1.0,
        device_id="dev",
    )
    base.update(overrides)
    return ItemMetadata(**base)


def test_item_validates_status():
    with pytest.raises(ValueError):
        make_item(status="BOGUS")


def test_item_validates_version():
    with pytest.raises(ValueError):
        make_item(version=0)


@pytest.mark.parametrize(
    "field, built, sent",
    [("size", 2**63, 2**63), ("size", -(2**63) - 1, -(2**63) - 1), ("status", "BOGUS", 3)],
    ids=["size-2**63", "size-below-int64", "status-unknown"],
)
def test_an_item_its_record_cannot_hold_is_refused_when_built_and_unpacked(
    field, built, sent
):
    """A size outside signed 64-bit (sqlite's INTEGER range) or an unknown
    status is refused by the constructor and by the pickle layout's
    ``unpack_item`` alike, so every engine can store any item that is built."""
    assert make_item(size=2**63 - 1).size == 2**63 - 1
    assert make_item(size=-(2**63)).size == -(2**63)
    with pytest.raises(ValueError, match="fits no record|invalid status"):
        make_item(**{field: built})
    layout = ("workspace_id", "filename", "version", "status", "is_folder", "size",
              "checksum", "chunks", "modified_at", "device_id")
    values = dict(zip(layout, pack_item(make_item())[1]))
    values[field] = sent
    with pytest.raises((ValueError, IndexError), match="fits no record|out of range"):
        unpack_item(**values)


def test_item_id_is_derived_and_one_that_disagrees_is_refused():
    assert ItemMetadata("ws", 1, "a.txt").item_id == "ws:a.txt" == make_item().item_id
    for wrong in ("ws:b.txt", "other:a.txt", "a.txt"):
        with pytest.raises(ValueError, match="is not its workspace and path"):
            make_item(item_id=wrong)


def test_workspace_id_holding_a_colon_is_refused():
    """The first ``:`` of an item id ends its workspace, so no workspace id
    may hold one."""
    with pytest.raises(ValueError, match="holds ':'"):
        Workspace(workspace_id="team:0", owner="alice")
    with pytest.raises(ValueError, match="holds ':'"):
        Workspace.from_wire({"workspace_id": "team:0", "owner": "alice", "name": ""})


def test_item_wire_round_trip():
    item = make_item(chunks=["a" * 40, "b" * 40])
    assert ItemMetadata.from_wire(item.to_wire()) == item


def test_workspace_wire_round_trip():
    workspace = Workspace(workspace_id="ws", owner="alice", name="n")
    assert Workspace.from_wire(workspace.to_wire()) == workspace


def test_notification_partitions_results():
    ok = CommitResult(metadata=make_item(), confirmed=True)
    bad = CommitResult(
        metadata=make_item(version=2, status=STATUS_CHANGED),
        confirmed=False,
        current=make_item(version=3, status=STATUS_CHANGED),
    )
    notification = CommitNotification(
        workspace_id="ws", source_device="dev", results=[ok, bad]
    )
    assert notification.confirmed == [ok]
    assert notification.conflicts == [bad]


def test_notification_wire_round_trip():
    notification = CommitNotification(
        workspace_id="ws",
        source_device="dev",
        results=[
            CommitResult(metadata=make_item(), confirmed=True),
            CommitResult(
                metadata=make_item(version=2, status=STATUS_DELETED),
                confirmed=False,
                current=make_item(version=5, status=STATUS_CHANGED),
            ),
        ],
        committed_at=7.0,
        request_id="rq",
    )
    decoded = CommitNotification.from_wire(notification.to_wire())
    assert decoded == notification


def test_item_holds_digests_as_bytes_and_converts_hex():
    item = make_item(checksum="AB" * 20, chunks=["f1" * 20, b"\x02" * 20])
    assert item.checksum == b"\xab" * 20
    assert item.chunks == (b"\xf1" * 20, b"\x02" * 20)
    assert item == make_item(checksum=b"\xab" * 20, chunks=(b"\xf1" * 20, b"\x02" * 20))
    assert "ab" * 20 in repr(item) and "f1" * 20 in repr(item)
    with pytest.raises(ValueError):
        make_item(chunks=["fp1"])  # neither bytes nor hex
    with pytest.raises(ValueError, match="one non-zero width"):
        make_item(chunks=["f1" * 20, b"\x02" * 32])


def test_a_decoded_version_keeps_under_400_bytes():
    """What the metadata back-end holds per version, decoded from the wire.

    The items are shaped like the repo benchmark's commit workloads (16
    workspaces, fixed-width ids, one 20-byte checksum and chunk, several
    versions per item).  A per-instance ``__dict__``, hex digests and a copy
    of each id per version made this about 850 bytes.
    """
    rng = random.Random(1)
    codec = PickleSerializer()
    backend = MemoryMetadataBackend()
    backend.create_user("u")
    workspaces = [f"ws-52e6b438-{w:02d}" for w in range(16)]
    for workspace_id in workspaces:
        backend.create_workspace(Workspace(workspace_id=workspace_id, owner="u"))

    def request(workspace_id, item, version):
        path = f"dir-{item % 16:02d}/file-{item:08d}.dat"
        proposal = ItemMetadata(
            workspace_id, version, path,
            STATUS_NEW if version == 1 else STATUS_CHANGED, False, 512 * 1024,
            rng.randbytes(20), (rng.randbytes(20),), 1_400_000_000.0 + version,
            "dev-generator",
        )
        return codec.encode(make_request(
            "commit_request", [workspace_id, "dev-generator", [proposal]],
            {"request_id": "0" * 32}, call="async", multi=False,
        ))

    bodies = [
        request(workspace_id, item, version)
        for version in range(1, 17) for workspace_id in workspaces for item in range(8)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for body in bodies:
            _workspace, _device, items = codec.decode(body)["args"]
            assert backend.store_versions_bulk(items) == [(True, None)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert backend.counts()["versions"] == len(bodies)
    assert retained / len(bodies) <= 400


@pytest.mark.parametrize(
    "sole_chunk, budget", [(False, 192), (True, 176)],
    ids=["checksum-and-chunk", "checksum-is-the-sole-chunk"],
)
def test_a_decoded_item_keeps_its_digests_in_one_blob(sole_chunk, budget):
    """What a joining device holds per live item after ``get_changes``.

    Four replies of 512 items shaped like the repo benchmark's commit
    workloads, each decoded ten times and kept.  The server's copies stay
    alive, as in the benchmark's one process, so the decoded items share their
    interned ids and names.  An item keeps about 181 bytes, or 161 when its
    checksum is its only chunk.  With ten slots and one digests blob it kept
    251 (231); with a checksum bytes object, a chunks tuple and a bytes object
    per chunk, about 338 (285).
    """
    rng = random.Random(2)
    codec = PickleSerializer()

    def reply(w):
        workspace_id = f"ws-52e6b438-{w:02d}"
        items = []
        for item in range(512):
            chunk = rng.randbytes(20)
            items.append(ItemMetadata(
                workspace_id, 2, f"dir-{item % 16:02d}/file-{item:08d}.dat",
                STATUS_CHANGED, False, 512 * 1024, chunk if sole_chunk else rng.randbytes(20),
                (chunk,), 1_400_000_002.0, "dev-generator",
            ))
        return codec.encode(make_reply("0" * 32, result=items))

    bodies = [reply(w) for w in range(4)]
    served = [codec.decode(body)["result"] for body in bodies]  # noqa: F841
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [codec.decode(body)["result"] for body in bodies for _ in range(10)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    decoded = sum(map(len, kept))
    assert decoded == 4 * 512 * 10
    assert retained / decoded <= budget
