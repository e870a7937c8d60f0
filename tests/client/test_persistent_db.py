"""Tests for the SQLite-backed client database (restart resumption)."""

from __future__ import annotations

import os
import sqlite3
from contextlib import closing

import pytest

from repro.client import LocalDatabase, LocalFileRecord
from repro.client.persistent_db import SqliteLocalDatabase


@pytest.fixture(params=["memory", "sqlite"])
def db(request, tmp_path):
    if request.param == "memory":
        yield LocalDatabase()
    else:
        database = SqliteLocalDatabase(str(tmp_path / "client.db"))
        yield database
        database.close()


def record(item_id="ws:a.txt", path="a.txt", version=1, pending=None):
    return LocalFileRecord(
        item_id=item_id,
        path=path,
        version=version,
        chunks=(b"\xf1" * 20, b"\xf2" * 20),
        checksum=b"\x0c" * 20,
        size=7,
        pending_version=pending,
    )


def test_contract_upsert_get(db):
    db.upsert(record())
    found = db.get("ws:a.txt")
    assert found.path == "a.txt"
    assert found.chunks == (b"\xf1" * 20, b"\xf2" * 20)
    assert found.checksum == b"\x0c" * 20
    assert db.get_by_path("a.txt").item_id == "ws:a.txt"


def test_contract_upsert_replaces(db):
    db.upsert(record(version=1))
    db.upsert(record(version=5, pending=6))
    found = db.get("ws:a.txt")
    assert found.version == 5
    assert found.pending_version == 6
    assert len(db.list_records()) == 1


def test_contract_remove(db):
    db.upsert(record())
    db.remove("ws:a.txt")
    assert db.get("ws:a.txt") is None


def test_contract_dedup_and_cache(db):
    x, y, z = (bytes([n]) * 20 for n in b"xyz")
    db.remember_fingerprints([x, y])
    assert db.knows_fingerprint(x)
    assert not db.knows_fingerprint(x.hex().encode())
    assert db.fingerprint_count() == 2
    db.cache_chunk(z, b"payload")
    assert db.cached_chunk(z) == b"payload"
    assert db.knows_fingerprint(z)
    assert db.cache_size_bytes() == 7
    assert db.evict_chunks(keep={x}) == 1
    assert db.cached_chunk(z) is None
    assert db.knows_fingerprint(z)  # dedup memory survives eviction


def test_sqlite_survives_reopen(tmp_path):
    path = str(tmp_path / "client.db")
    db = SqliteLocalDatabase(path)
    db.upsert(record(version=3, pending=4))
    db.remember_fingerprints([b"\x01" * 20])
    db.cache_chunk(b"\x02" * 20, b"\x00\x01")
    db.close()

    reopened = SqliteLocalDatabase(path)
    found = reopened.get("ws:a.txt")
    assert found.version == 3 and found.pending_version == 4
    assert reopened.knows_fingerprint(b"\x01" * 20)
    assert reopened.cached_chunk(b"\x02" * 20) == b"\x00\x01"
    assert found.chunks == record().chunks
    reopened.close()
    # The client layout did not change with the metadata one: still version 1.
    with closing(sqlite3.connect(path)) as raw:
        assert raw.execute("PRAGMA user_version").fetchone()[0] == 1


def test_sqlite_refuses_a_file_of_the_hex_layout(tmp_path):
    """A file from before digests were BLOBs keeps hex fingerprints every bytes
    lookup would miss: it is refused on open, not silently served."""
    import sqlite3

    from repro.errors import MetadataError

    path = str(tmp_path / "hex.db")
    old = sqlite3.connect(path)
    old.executescript(
        "CREATE TABLE fingerprints (fingerprint TEXT PRIMARY KEY);"
        f"INSERT INTO fingerprints VALUES ('{'01' * 20}');"
    )
    old.close()
    with pytest.raises(MetadataError, match="schema version 0"):
        SqliteLocalDatabase(path)


def test_client_restart_resumes_without_reupload(testbed, tmp_path):
    """A device restarting with its durable DB re-uploads nothing."""
    path = str(tmp_path / "dev1.db")
    from repro.client import StackSyncClient

    db = SqliteLocalDatabase(path)
    c1 = StackSyncClient(
        "alice",
        testbed.workspaces["alice"],
        testbed.mom,
        testbed.storage,
        device_id="dev-1",
        local_db=db,
    )
    c1.start()
    meta = c1.put_file("persist.txt", b"durable " * 200)
    c1.wait_for_version(meta.item_id, meta.version)
    c1.stop()
    db.close()

    puts_before = testbed.storage.put_count
    db2 = SqliteLocalDatabase(path)
    c2 = StackSyncClient(
        "alice",
        testbed.workspaces["alice"],
        testbed.mom,
        testbed.storage,
        device_id="dev-1",
        local_db=db2,
    )
    c2.start()
    # Same content again after "restart": dedup index remembers it.
    meta2 = c2.put_file("persist-copy.txt", b"durable " * 200)
    c2.wait_for_version(meta2.item_id, meta2.version, timeout=10)
    assert testbed.storage.put_count == puts_before
    c2.stop()
    db2.close()
