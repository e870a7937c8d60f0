"""Tests for the client's local database (records, dedup index, cache)."""

from __future__ import annotations

from repro.client import LocalDatabase, LocalFileRecord


def record(item_id="ws:a.txt", path="a.txt", version=1, pending=None):
    return LocalFileRecord(
        item_id=item_id, path=path, version=version, pending_version=pending
    )


def test_upsert_and_get():
    db = LocalDatabase()
    db.upsert(record())
    assert db.get("ws:a.txt").path == "a.txt"
    assert db.get_by_path("a.txt").item_id == "ws:a.txt"
    assert db.get("missing") is None
    assert db.get_by_path("missing") is None


def test_upsert_replaces():
    db = LocalDatabase()
    db.upsert(record(version=1))
    db.upsert(record(version=2, pending=3))
    found = db.get("ws:a.txt")
    assert (found.version, found.pending_version) == (2, 3)
    assert db.get_by_path("a.txt") == found


def test_remove_clears_both_indexes():
    db = LocalDatabase()
    db.upsert(record())
    db.remove("ws:a.txt")
    assert db.get("ws:a.txt") is None
    assert db.get_by_path("a.txt") is None


def test_remove_does_not_clobber_reused_path():
    db = LocalDatabase()
    db.upsert(record(item_id="old", path="a.txt"))
    db.upsert(record(item_id="new", path="a.txt"))
    db.remove("old")
    assert db.get_by_path("a.txt").item_id == "new"


def test_dedup_index():
    db = LocalDatabase()
    assert not db.knows_fingerprint("f1")
    db.remember_fingerprints(["f1", "f2"])
    assert db.knows_fingerprint("f1") and db.knows_fingerprint("f2")
    assert not db.knows_fingerprint("f3")


def test_chunk_cache_also_feeds_dedup():
    db = LocalDatabase()
    db.cache_chunk("f1", b"payload")
    assert db.cached_chunk("f1") == b"payload"
    assert db.knows_fingerprint("f1")
    assert db.cached_chunk("ghost") is None
    db.remember_fingerprints(["f2"])
    assert db.cached_chunk("f2") is None  # remembered, not cached

