"""SQLite-backed client local database (§4.1).

The paper's desktop client keeps its local database on disk so a restart
resumes synchronization without a full re-scan.  This engine implements
the exact :class:`~repro.client.local_db.LocalDatabase` surface over
``sqlite3``: file records, the per-user dedup index, and the chunk cache
all survive process restarts.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Optional

from repro.client.local_db import LocalFileRecord
from repro.metadata.sqlite_backend import open_schema

_SCHEMA = """
CREATE TABLE IF NOT EXISTS files (
    item_id TEXT PRIMARY KEY,
    path TEXT NOT NULL,
    version INTEGER NOT NULL,
    pending_version INTEGER
);
CREATE INDEX IF NOT EXISTS idx_files_path ON files(path);
CREATE TABLE IF NOT EXISTS fingerprints (
    fingerprint BLOB PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS chunk_cache (
    fingerprint BLOB PRIMARY KEY,
    payload BLOB NOT NULL
);
"""


#: ``PRAGMA user_version`` of a client file in the current layout.  Version 2
#: keeps no chunks, checksum or size per file; version 1 did, and the unstamped
#: layout held fingerprints as hex.
SCHEMA_VERSION = 2


class SqliteLocalDatabase:
    """Durable drop-in replacement for the in-memory LocalDatabase."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.isolation_level = None
        with self._lock:
            open_schema(self._conn, _SCHEMA, SCHEMA_VERSION)

    # -- file records -----------------------------------------------------------

    def get(self, item_id: str) -> Optional[LocalFileRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM files WHERE item_id = ?", (item_id,)
            ).fetchone()
        return self._row_to_record(row) if row else None

    def get_by_path(self, path: str) -> Optional[LocalFileRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM files WHERE path = ? ORDER BY rowid DESC LIMIT 1",
                (path,),
            ).fetchone()
        return self._row_to_record(row) if row else None

    def upsert(self, record: LocalFileRecord) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO files(item_id, path, version, pending_version)"
                " VALUES (?, ?, ?, ?) ON CONFLICT(item_id) DO UPDATE SET"
                " path=excluded.path, version=excluded.version,"
                " pending_version=excluded.pending_version",
                (record.item_id, record.path, record.version, record.pending_version),
            )

    def remove(self, item_id: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM files WHERE item_id = ?", (item_id,))

    # -- dedup index ----------------------------------------------------------------

    def knows_fingerprint(self, fingerprint: bytes) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM fingerprints WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    def remember_fingerprints(self, fingerprints) -> None:
        with self._lock:
            self._conn.executemany(
                "INSERT OR IGNORE INTO fingerprints(fingerprint) VALUES (?)",
                ((fp,) for fp in fingerprints),
            )

    # -- chunk cache ------------------------------------------------------------------

    def cache_chunk(self, fingerprint: bytes, payload: bytes) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO chunk_cache(fingerprint, payload)"
                " VALUES (?, ?)",
                (fingerprint, payload),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO fingerprints(fingerprint) VALUES (?)",
                (fingerprint,),
            )

    def cached_chunk(self, fingerprint: bytes) -> Optional[bytes]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM chunk_cache WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        return bytes(row[0]) if row else None

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _row_to_record(row) -> LocalFileRecord:
        return LocalFileRecord(*row)
