"""Back-end contract tests, run against both metadata engines.

The ``metadata_backend`` fixture (conftest) parametrizes over the
in-memory and SQLite implementations, so every test here pins down the
shared ACID contract Algorithm 1 relies on.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import sqlite3
import threading
import tracemalloc
from contextlib import closing

import pytest

from repro.errors import MetadataError, UnknownWorkspace
from repro.metadata import MemoryMetadataBackend
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    ItemMetadata,
    Workspace,
)


def setup_workspace(backend, user="alice", workspace_id="ws1"):
    backend.create_user(user)
    workspace = Workspace(workspace_id=workspace_id, owner=user)
    backend.create_workspace(workspace)
    return workspace


def item(version=1, item_id="ws1:a.txt", status="NEW", chunks=None, ws="ws1"):
    return ItemMetadata(
        item_id=item_id,
        workspace_id=ws,
        version=version,
        filename=item_id.split(":", 1)[1],
        status=status,
        size=10,
        checksum="c" * 40,
        chunks=chunks if chunks is not None else ["f1" * 20],
        modified_at=1.0,
        device_id="dev",
    )


def commit(backend, *proposals):
    """Store *proposals* as one bundle, every one of which must win."""
    outcomes = backend.store_versions_bulk(list(proposals))
    assert outcomes == [(True, None)] * len(proposals)


def test_user_and_workspace_lifecycle(metadata_backend):
    workspace = setup_workspace(metadata_backend)
    assert metadata_backend.workspace_exists("ws1")
    assert metadata_backend.workspaces_for("alice") == [workspace]
    assert metadata_backend.workspaces_for("nobody") == []


def test_create_workspace_requires_owner(metadata_backend):
    with pytest.raises(MetadataError):
        metadata_backend.create_workspace(Workspace(workspace_id="w", owner="ghost"))


def test_grant_access_shares_workspace(metadata_backend):
    workspace = setup_workspace(metadata_backend)
    metadata_backend.create_user("bob")
    metadata_backend.grant_access("ws1", "bob")
    assert metadata_backend.workspaces_for("bob") == [workspace]


def test_grant_access_validates_both_sides(metadata_backend):
    setup_workspace(metadata_backend)
    with pytest.raises(MetadataError):
        metadata_backend.grant_access("ws1", "ghost")
    metadata_backend.create_user("bob")
    with pytest.raises(UnknownWorkspace):
        metadata_backend.grant_access("missing", "bob")


def test_store_and_get_current(metadata_backend):
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))
    current = metadata_backend.item_history("ws1:a.txt")[-1]
    assert current.version == 1
    assert current.chunks == (b"\xf1" * 20,)


def test_get_current_unknown_item(metadata_backend):
    assert metadata_backend.item_history("nope") == []


def test_store_new_object_rejects_duplicates(metadata_backend):
    """A second version 1 loses to the first, which comes back with it."""
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))
    duplicate = dataclasses.replace(item(version=1), device_id="other")
    assert metadata_backend.store_versions_bulk([duplicate]) == [(False, item(version=1))]
    assert metadata_backend.item_history("ws1:a.txt") == [item(version=1)]


def test_store_new_object_requires_workspace(metadata_backend):
    with pytest.raises(UnknownWorkspace):
        metadata_backend.store_versions_bulk([item(version=1)])


def test_version_chain_must_be_contiguous(metadata_backend):
    setup_workspace(metadata_backend)
    second = item(version=2, status=STATUS_CHANGED)
    commit(metadata_backend, item(version=1), second)
    for version in (2, 5):
        proposal = item(version=version, status=STATUS_CHANGED)
        assert metadata_backend.store_versions_bulk([proposal]) == [(False, second)]
    assert metadata_backend.item_history("ws1:a.txt")[-1] == second


def test_workspace_state_excludes_deleted(metadata_backend):
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1, item_id="ws1:a.txt"))
    commit(metadata_backend, item(version=1, item_id="ws1:b.txt"))
    commit(metadata_backend, item(version=2, item_id="ws1:b.txt", status=STATUS_DELETED))
    state = metadata_backend.get_workspace_state("ws1")
    assert [m.item_id for m in state] == ["ws1:a.txt"]


def test_workspace_state_latest_version_only(metadata_backend):
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))
    commit(metadata_backend, item(version=2, status=STATUS_CHANGED, chunks=["f2" * 20]))
    state = metadata_backend.get_workspace_state("ws1")
    assert len(state) == 1
    assert state[0].version == 2
    assert state[0].chunks == (b"\xf2" * 20,)


def test_item_history_ordered(metadata_backend):
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))
    commit(metadata_backend, item(version=2, status=STATUS_CHANGED))
    commit(metadata_backend, item(version=3, status=STATUS_CHANGED))
    history = metadata_backend.item_history("ws1:a.txt")
    assert [m.version for m in history] == [1, 2, 3]


def test_counts(metadata_backend):
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))
    commit(metadata_backend, item(version=2, status=STATUS_CHANGED))
    counts = metadata_backend.counts()
    assert counts["users"] == 1
    assert counts["workspaces"] == 1
    assert counts["items"] == 1
    assert counts["versions"] == 2


def test_concurrent_commits_exactly_one_winner(metadata_backend):
    """The first-writer-wins race at the heart of conflict handling."""
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))

    outcomes = []
    barrier = threading.Barrier(2)

    def racer(device):
        proposal = ItemMetadata(
            item_id="ws1:a.txt",
            workspace_id="ws1",
            version=2,
            filename="a.txt",
            status=STATUS_CHANGED,
            device_id=device,
        )
        barrier.wait()
        ((committed, _current),) = metadata_backend.store_versions_bulk([proposal])
        outcomes.append((device, "ok" if committed else "conflict"))

    threads = [threading.Thread(target=racer, args=(d,)) for d in ("d1", "d2")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    results = sorted(o[1] for o in outcomes)
    assert results == ["conflict", "ok"]
    assert metadata_backend.item_history("ws1:a.txt")[-1].version == 2


def test_concurrent_new_objects_exactly_one_winner(metadata_backend):
    setup_workspace(metadata_backend)
    outcomes = []
    barrier = threading.Barrier(4)

    def racer(i):
        barrier.wait()
        ((committed, _current),) = metadata_backend.store_versions_bulk([item(version=1)])
        outcomes.append("ok" if committed else "conflict")

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("ok") == 1
    assert outcomes.count("conflict") == 3


def test_sqlite_persists_to_disk(tmp_path):
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "meta.db")
    backend = SqliteMetadataBackend(path)
    setup_workspace(backend)
    commit(backend, item(version=1))
    backend.close()

    reopened = SqliteMetadataBackend(path)
    assert reopened.item_history("ws1:a.txt")[-1].version == 1
    assert reopened.workspace_exists("ws1")
    reopened.close()
    with closing(sqlite3.connect(path)) as raw:  # the file keeps WAL and its stamp
        assert raw.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert raw.execute("PRAGMA user_version").fetchone()[0] == 5


def test_sqlite_refuses_a_file_of_the_hex_layout(tmp_path):
    """A file from before digests were BLOBs (unstamped, hex TEXT and JSON) would
    be misread row by row: it is refused on open, not served."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "hex.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE item_versions (item_id TEXT, version INTEGER, workspace_id TEXT,"
        " filename TEXT, status TEXT, is_folder INTEGER, size INTEGER,"
        " checksum TEXT, chunks TEXT, modified_at REAL, device_id TEXT);"
    )
    old.execute(
        "INSERT INTO item_versions VALUES (?, 1, 'ws1', 'a.txt', 'NEW', 0, 1, ?, ?, 0, 'd')",
        ("ws1:a.txt", "cc" * 20, f'["{"f1" * 20}"]'),
    )
    old.commit()
    old.close()
    with pytest.raises(MetadataError, match="schema version 0"):
        SqliteMetadataBackend(path)


def test_sqlite_refuses_a_file_of_the_flat_layout(tmp_path):
    """A version-1 file keeps every version in one flat ``item_versions`` table,
    which this build no longer reads: it is refused on open, not served."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "flat.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE item_versions (item_id TEXT, version INTEGER, workspace_id TEXT,"
        " filename TEXT, status TEXT, is_folder INTEGER, size INTEGER,"
        " checksum BLOB, chunks BLOB, modified_at REAL, device_id TEXT,"
        " PRIMARY KEY (item_id, version));"
        "PRAGMA user_version = 1;"
    )
    old.close()
    with pytest.raises(MetadataError, match="schema version 1"):
        SqliteMetadataBackend(path)


def test_sqlite_refuses_a_file_of_the_version_2_layout(tmp_path):
    """A version-2 file may hold a version naming another workspace or filename
    than its item's, which this build cannot return: it is refused on open."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "v2.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, item_id TEXT NOT NULL UNIQUE,"
        " workspace_id TEXT NOT NULL, filename TEXT NOT NULL);"
        "CREATE TABLE versions (item INTEGER NOT NULL, version INTEGER NOT NULL,"
        " status INTEGER NOT NULL, is_folder INTEGER NOT NULL, size INTEGER NOT NULL,"
        " checksum BLOB NOT NULL, chunks BLOB NOT NULL, modified_at REAL NOT NULL,"
        " device_id TEXT NOT NULL, workspace_id TEXT, filename TEXT,"
        " PRIMARY KEY (item, version)) WITHOUT ROWID;"
        "PRAGMA user_version = 2;"
    )
    old.close()
    with pytest.raises(MetadataError, match="schema version 2"):
        SqliteMetadataBackend(path)


def test_sqlite_refuses_a_file_of_the_version_3_layout(tmp_path):
    """A version-3 file cuts each version's record into six columns, which this
    build no longer reads: it is refused on open, not served."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "v3.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, item_id TEXT NOT NULL UNIQUE,"
        " workspace_id TEXT NOT NULL, filename TEXT NOT NULL);"
        "CREATE TABLE versions (item INTEGER NOT NULL, version INTEGER NOT NULL,"
        " status INTEGER NOT NULL, is_folder INTEGER NOT NULL, size INTEGER NOT NULL,"
        " checksum BLOB NOT NULL, chunks BLOB NOT NULL, modified_at REAL NOT NULL,"
        " device_id TEXT NOT NULL, PRIMARY KEY (item, version)) WITHOUT ROWID;"
        "PRAGMA user_version = 3;"
    )
    old.close()
    with pytest.raises(MetadataError, match="schema version 3"):
        SqliteMetadataBackend(path)


def test_sqlite_refuses_a_file_of_the_version_4_layout(tmp_path):
    """A version-4 file gives every user a ``NOT NULL`` name, which this
    build's insert of a user leaves out: it is refused on open, not served."""
    from repro.metadata import SqliteMetadataBackend

    path = str(tmp_path / "v4.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE users (user_id TEXT PRIMARY KEY, name TEXT NOT NULL);"
        "CREATE TABLE devices (user_id TEXT NOT NULL, device_id TEXT NOT NULL,"
        " name TEXT NOT NULL, PRIMARY KEY (user_id, device_id));"
        "PRAGMA user_version = 4;"
    )
    old.close()
    with pytest.raises(MetadataError, match="schema version 4"):
        SqliteMetadataBackend(path)


def commit_load(rng):
    """The commit workloads' shape: 16 workspaces, and a maker of the version
    of one of their items that declares one 512 KiB chunk."""
    workspaces = [f"ws-{rng.getrandbits(32):08x}-{w:02d}" for w in range(16)]

    def proposal(workspace, index, version):
        path = f"dir-{index % 16:02d}/file-{index:08d}.dat"
        return ItemMetadata(
            item_id=f"{workspace}:{path}",
            workspace_id=workspace,
            version=version,
            filename=path,
            status="NEW" if version == 1 else STATUS_CHANGED,
            size=512 * 1024,
            checksum=rng.randbytes(20),
            chunks=(rng.randbytes(20),),
            modified_at=1_400_000_000.0 + version,
            device_id="dev-generator",
        )

    return workspaces, proposal


def test_sqlite_stores_an_update_in_under_100_bytes():
    """The commit-bundle shape: 16 workspaces of 512 items at version 1, then
    8-item update bundles.  Each stored update grows the database by at most
    100 B (about 95.5 B; a layout that repeats the item's identity in every
    version row takes about 300 B)."""
    from repro.metadata import SqliteMetadataBackend

    workspaces, proposal = commit_load(random.Random(5))
    backend = SqliteMetadataBackend(":memory:")
    backend.create_user("alice")

    def size():
        pragma = backend._conn.execute
        return (
            pragma("PRAGMA page_count").fetchone()[0]
            * pragma("PRAGMA page_size").fetchone()[0]
        )

    try:
        for workspace in workspaces:
            backend.create_workspace(Workspace(workspace_id=workspace, owner="alice"))
            for first in range(0, 512, 8):
                backend.store_versions_bulk(
                    [proposal(workspace, first + r, 1) for r in range(8)]
                )
        before, bundles = size(), 1024
        for n in range(bundles):
            touched = (n // 16) * 8
            outcomes = backend.store_versions_bulk(
                [
                    proposal(workspaces[n % 16], (touched + r) % 512, 2 + touched // 512)
                    for r in range(8)
                ]
            )
            assert all(committed for committed, _ in outcomes)
        assert (size() - before) / (8 * bundles) <= 100
    finally:
        backend.close()


def test_sqlite_stores_an_items_record_whole():
    """A ``versions`` row holds the item's ``record`` byte for byte, whatever its
    digests (a separate checksum, a sole chunk, none, 32-byte ones) or status,
    and the item read back equals the one stored."""
    from repro.metadata import SqliteMetadataBackend

    sha1, sha256 = b"\x01" * 20, b"\x02" * 32
    digests = {
        "ws1:a.txt": (b"\xcc" * 20, (sha1,)),
        "ws1:b.txt": (sha1, (sha1,)),
        "ws1:c.txt": (b"", ()),
        "ws1:d.txt": (b"\xcc" * 20, (sha256, sha256)),
    }
    with closing(SqliteMetadataBackend(":memory:")) as backend:
        setup_workspace(backend)
        stored = [
            dataclasses.replace(item(item_id=item_id, chunks=chunks), checksum=checksum)
            for item_id, (checksum, chunks) in digests.items()
        ]
        commit(backend, *stored)
        deleted = item(version=2, status=STATUS_DELETED, chunks=())
        commit(backend, deleted)
        stored[0] = deleted
        rows = backend._conn.execute(
            "SELECT i.item_id, v.record FROM items i JOIN versions v ON v.item = i.id"
            " WHERE v.version = (SELECT MAX(version) FROM versions WHERE item = i.id)"
            " ORDER BY i.item_id"
        ).fetchall()
        assert rows == [(m.item_id, m.record) for m in stored]
        assert [backend.item_history(m.item_id)[-1] for m in stored] == stored


def test_memory_stores_an_update_in_under_128_bytes():
    """The commit_storm shape: 16 workspaces of 512 items at version 1, then 8
    updates of each item.  Each stored update grows the engine's heap by at most
    128 B (about 112 B: the version it supersedes becomes one packed record; a
    layout that keeps every version as an ItemMetadata takes about 390 B)."""
    workspaces, proposal = commit_load(random.Random(5))
    backend = MemoryMetadataBackend()
    backend.create_user("alice")
    tracemalloc.start()
    try:
        for workspace in workspaces:
            backend.create_workspace(Workspace(workspace_id=workspace, owner="alice"))
            for index in range(512):
                commit(backend, proposal(workspace, index, 1))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for version in range(2, 10):
            for workspace in workspaces:
                for index in range(512):
                    commit(backend, proposal(workspace, index, version))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert backend.counts()["versions"] == 9 * 16 * 512
    assert grown / (8 * 16 * 512) <= 128


def test_digests_of_any_one_width_round_trip(metadata_backend):
    """SHA-256 chunk lists (32-byte digests) come back as stored, not cut at 20."""
    setup_workspace(metadata_backend)
    sha256 = (b"\x01" * 32, b"\x02" * 32)
    commit(metadata_backend, item(version=1, chunks=sha256))
    commit(metadata_backend, item(version=2, status=STATUS_CHANGED, chunks=()))
    first, second = metadata_backend.item_history("ws1:a.txt")
    assert (first.chunks, first.checksum) == (sha256, b"\xcc" * 20)
    assert second.chunks == ()


def test_chunks_of_mixed_widths_are_refused(metadata_backend):
    """A chunk list of two widths is refused when its item is built (an item
    holds its digests in one blob of one width), so no engine is handed any
    of a bundle that would hold one."""
    setup_workspace(metadata_backend)
    commit(metadata_backend, item(version=1))
    with pytest.raises(ValueError, match="one non-zero width"):
        metadata_backend.store_versions_bulk([
            item(version=2, status=STATUS_CHANGED),
            item(version=1, item_id="ws1:b.txt", chunks=(b"\x01" * 20, b"\x02" * 32)),
        ])
    assert metadata_backend.item_history("ws1:a.txt")[-1].version == 1
    assert metadata_backend.item_history("ws1:b.txt") == []
    assert metadata_backend.counts()["versions"] == 1


def test_closed_backend_is_not_scraped(metadata_backend):
    """A backend that is closed but not yet collected must not break /metrics."""
    from repro.telemetry.registry import REGISTRY

    metadata_backend.close()
    REGISTRY.snapshot()  # sqlite cannot count rows on a closed database
