"""SQLite metadata back-end — the ACID stand-in for PostgreSQL.

The paper chose a relational store "to benefit from the ACID semantics,
and this way simplify the maintenance of consistency" (§4).  This engine
gives the same guarantee: each ``store_versions_bulk`` bundle runs as an
IMMEDIATE transaction whose version checks execute inside the
transaction, so racing SyncService instances serialize and the loser is
reported, not stored (first-writer-wins, no rollback of committed data).

A single connection guarded by a lock keeps the engine usable from the
many consumer threads of the MOM layer; WAL mode keeps readers cheap.
"""

from __future__ import annotations

import sqlite3
import threading
from struct import unpack
from typing import Dict, List, Optional, Tuple

from repro.errors import MetadataError, UnknownWorkspace
from repro.metadata.base import MetadataBackend, WorkspaceDump
from repro.sync.models import STATUS_DELETED, ItemMetadata, Workspace
from repro.telemetry.control import HEALTH

_SCHEMA = """
CREATE TABLE IF NOT EXISTS users (
    user_id TEXT PRIMARY KEY,
    name TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS workspaces (
    workspace_id TEXT PRIMARY KEY,
    owner TEXT NOT NULL REFERENCES users(user_id),
    name TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS devices (
    user_id TEXT NOT NULL REFERENCES users(user_id),
    device_id TEXT NOT NULL,
    name TEXT NOT NULL,
    PRIMARY KEY (user_id, device_id)
);
CREATE TABLE IF NOT EXISTS workspace_users (
    workspace_id TEXT NOT NULL REFERENCES workspaces(workspace_id),
    user_id TEXT NOT NULL REFERENCES users(user_id),
    PRIMARY KEY (workspace_id, user_id)
);
CREATE TABLE IF NOT EXISTS item_versions (
    item_id TEXT NOT NULL,
    version INTEGER NOT NULL,
    workspace_id TEXT NOT NULL REFERENCES workspaces(workspace_id),
    filename TEXT NOT NULL,
    status TEXT NOT NULL,
    is_folder INTEGER NOT NULL,
    size INTEGER NOT NULL,
    checksum BLOB NOT NULL,
    chunks BLOB NOT NULL,
    modified_at REAL NOT NULL,
    device_id TEXT NOT NULL,
    PRIMARY KEY (item_id, version)
);
CREATE INDEX IF NOT EXISTS idx_item_ws ON item_versions(workspace_id, item_id);
"""


#: ``PRAGMA user_version`` of a file in the current layout.  Version 1 holds
#: digests as BLOBs; the unstamped layout before it held them as hex TEXT/JSON.
SCHEMA_VERSION = 1


def open_schema(conn: sqlite3.Connection, schema: str) -> None:
    """Lay *schema* into a new database, or check an existing file is in it.

    A file of another layout would be misread row by row, so it is refused.
    """
    found = conn.execute("PRAGMA user_version").fetchone()[0]
    if found != SCHEMA_VERSION and (
        found or conn.execute("SELECT 1 FROM sqlite_master").fetchone()
    ):
        conn.close()
        raise MetadataError(
            f"database is in schema version {found}; this build reads only {SCHEMA_VERSION}"
        )
    conn.executescript(schema)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")


def digests_blob(digests: Tuple[bytes, ...]) -> bytes:
    """*digests* as one BLOB: their common width in a byte, then each digest.

    The sqlite engines store a chunk list so; a width is kept because a
    fingerprinter other than SHA-1 (``sha256_fingerprint``) gives 32 bytes.
    """
    widths = set(map(len, digests))
    if len(widths) > 1 or 0 in widths:
        raise ValueError(f"digests of widths {sorted(widths)} share no one width")
    return bytes(widths) + b"".join(digests)


def blob_digests(blob: bytes) -> Tuple[bytes, ...]:
    """The digests :func:`digests_blob` stored in *blob*."""
    return unpack(f"{blob[0]}s" * ((len(blob) - 1) // blob[0]), blob[1:]) if blob else ()


class SqliteMetadataBackend(MetadataBackend):
    """Relational metadata store over :mod:`sqlite3`.

    Args:
        path: Database file (``:memory:`` for an ephemeral engine).
        probe_name: Health-registry component name; shard deployments pass
            distinct names so ``/health`` tells the engines apart.
    """

    def __init__(self, path: str = ":memory:", probe_name: Optional[str] = None):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.isolation_level = None  # manual transaction control
        with self._lock:
            if path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
            open_schema(self._conn, _SCHEMA)
        HEALTH.register(
            probe_name or "metadata:sqlite", self, SqliteMetadataBackend._health_probe
        )

    def _health_probe(self) -> Dict[str, object]:
        """Ops-endpoint probe: the database answers ``SELECT 1``."""
        try:
            with self._lock:
                self._conn.execute("SELECT 1").fetchone()
        except sqlite3.Error as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "path": self.path}

    # -- accounts & workspaces ---------------------------------------------------

    def create_user(self, user_id: str, name: str = "") -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO users(user_id, name) VALUES (?, ?)",
                (user_id, name or user_id),
            )

    def create_workspace(self, workspace: Workspace) -> None:
        with self._lock:
            owner = self._conn.execute(
                "SELECT 1 FROM users WHERE user_id = ?", (workspace.owner,)
            ).fetchone()
            if owner is None:
                raise MetadataError(f"unknown owner {workspace.owner!r}")
            self._conn.execute(
                "INSERT OR IGNORE INTO workspaces(workspace_id, owner, name) "
                "VALUES (?, ?, ?)",
                (workspace.workspace_id, workspace.owner, workspace.name),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO workspace_users(workspace_id, user_id) "
                "VALUES (?, ?)",
                (workspace.workspace_id, workspace.owner),
            )

    def grant_access(self, workspace_id: str, user_id: str) -> None:
        with self._lock:
            self._require_workspace(workspace_id)
            user = self._conn.execute(
                "SELECT 1 FROM users WHERE user_id = ?", (user_id,)
            ).fetchone()
            if user is None:
                raise MetadataError(f"unknown user {user_id!r}")
            self._conn.execute(
                "INSERT OR IGNORE INTO workspace_users(workspace_id, user_id) "
                "VALUES (?, ?)",
                (workspace_id, user_id),
            )

    def workspaces_for(self, user_id: str) -> List[Workspace]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT w.workspace_id, w.owner, w.name FROM workspaces w "
                "JOIN workspace_users wu ON wu.workspace_id = w.workspace_id "
                "WHERE wu.user_id = ? ORDER BY w.workspace_id",
                (user_id,),
            ).fetchall()
        return [Workspace(workspace_id=r[0], owner=r[1], name=r[2]) for r in rows]

    def workspace_exists(self, workspace_id: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM workspaces WHERE workspace_id = ?", (workspace_id,)
            ).fetchone()
        return row is not None

    # -- devices ---------------------------------------------------------------------

    def register_device(self, user_id: str, device_id: str, name: str = "") -> None:
        with self._lock:
            user = self._conn.execute(
                "SELECT 1 FROM users WHERE user_id = ?", (user_id,)
            ).fetchone()
            if user is None:
                raise MetadataError(f"unknown user {user_id!r}")
            self._conn.execute(
                "INSERT INTO devices(user_id, device_id, name) VALUES (?, ?, ?)"
                " ON CONFLICT(user_id, device_id) DO UPDATE SET name=excluded.name",
                (user_id, device_id, name or device_id),
            )

    def devices_for(self, user_id: str) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT device_id FROM devices WHERE user_id = ? ORDER BY device_id",
                (user_id,),
            ).fetchall()
        return [r[0] for r in rows]

    # -- item versions -------------------------------------------------------------

    def get_current(self, item_id: str) -> Optional[ItemMetadata]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM item_versions WHERE item_id = ? "
                "ORDER BY version DESC LIMIT 1",
                (item_id,),
            ).fetchone()
        return self._row_to_item(row) if row else None

    def store_versions_bulk(self, proposals):
        """Algorithm 1 for this engine: one BEGIN IMMEDIATE per bundle.

        Version checks re-run inside the transaction, so racing
        SyncService instances still serialize per item; a losing proposal
        is simply not inserted and its winner is read within the same
        transaction.  Later proposals in the bundle see earlier inserts.
        """
        outcomes = []
        with self.transaction_span(len(proposals)), self._lock:
            checked = set()
            for proposal in proposals:
                if proposal.workspace_id not in checked:
                    checked.add(proposal.workspace_id)
                    self._require_workspace(proposal.workspace_id)
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                for proposal in proposals:
                    current_version = self._conn.execute(
                        "SELECT MAX(version) FROM item_versions WHERE item_id = ?",
                        (proposal.item_id,),
                    ).fetchone()[0]
                    expected = 1 if current_version is None else current_version + 1
                    if proposal.version != expected:
                        current = self._conn.execute(
                            "SELECT * FROM item_versions WHERE item_id = ? "
                            "ORDER BY version DESC LIMIT 1",
                            (proposal.item_id,),
                        ).fetchone()
                        outcomes.append(
                            (False, self._row_to_item(current) if current else None)
                        )
                        continue
                    self._insert(proposal)
                    outcomes.append((True, None))
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return outcomes

    def get_workspace_state(self, workspace_id: str) -> List[ItemMetadata]:
        with self._lock:
            self._require_workspace(workspace_id)
            rows = self._conn.execute(
                "SELECT iv.* FROM item_versions iv JOIN ("
                "  SELECT item_id, MAX(version) AS v FROM item_versions "
                "  WHERE workspace_id = ? GROUP BY item_id"
                ") latest ON iv.item_id = latest.item_id AND iv.version = latest.v "
                "WHERE iv.status != ? ORDER BY iv.item_id",
                (workspace_id, STATUS_DELETED),
            ).fetchall()
        return [self._row_to_item(r) for r in rows]

    def item_history(self, item_id: str) -> List[ItemMetadata]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM item_versions WHERE item_id = ? ORDER BY version",
                (item_id,),
            ).fetchall()
        return [self._row_to_item(r) for r in rows]

    # -- migration -------------------------------------------------------------------

    def export_workspace(self, workspace_id: str) -> WorkspaceDump:
        with self._lock:
            self._require_workspace(workspace_id)
            ws_row = self._conn.execute(
                "SELECT workspace_id, owner, name FROM workspaces "
                "WHERE workspace_id = ?",
                (workspace_id,),
            ).fetchone()
            acl_rows = self._conn.execute(
                "SELECT wu.user_id, u.name FROM workspace_users wu "
                "JOIN users u ON u.user_id = wu.user_id "
                "WHERE wu.workspace_id = ? ORDER BY wu.user_id",
                (workspace_id,),
            ).fetchall()
            version_rows = self._conn.execute(
                "SELECT * FROM item_versions WHERE workspace_id = ? "
                "ORDER BY item_id, version",
                (workspace_id,),
            ).fetchall()
        versions: Dict[str, List[ItemMetadata]] = {}
        for row in version_rows:
            versions.setdefault(row[0], []).append(self._row_to_item(row))
        return WorkspaceDump(
            workspace=Workspace(
                workspace_id=ws_row[0], owner=ws_row[1], name=ws_row[2]
            ),
            users=[(r[0], r[1]) for r in acl_rows],
            acl=[r[0] for r in acl_rows],
            versions=versions,
        )

    def import_workspace(self, dump: WorkspaceDump) -> None:
        workspace_id = dump.workspace.workspace_id
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                existing = self._conn.execute(
                    "SELECT 1 FROM workspaces WHERE workspace_id = ?",
                    (workspace_id,),
                ).fetchone()
                if existing is not None:
                    raise MetadataError(
                        f"workspace {workspace_id!r} already exists here; "
                        "refusing to merge histories"
                    )
                for user_id, name in dump.users:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO users(user_id, name) VALUES (?, ?)",
                        (user_id, name or user_id),
                    )
                self._conn.execute(
                    "INSERT OR IGNORE INTO users(user_id, name) VALUES (?, ?)",
                    (dump.workspace.owner, dump.workspace.owner),
                )
                self._conn.execute(
                    "INSERT INTO workspaces(workspace_id, owner, name) "
                    "VALUES (?, ?, ?)",
                    (workspace_id, dump.workspace.owner, dump.workspace.name),
                )
                for user_id in set(dump.acl) | {dump.workspace.owner}:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO workspace_users(workspace_id, user_id)"
                        " VALUES (?, ?)",
                        (workspace_id, user_id),
                    )
                for chain in dump.versions.values():
                    for metadata in chain:
                        self._insert(metadata)
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def drop_workspace(self, workspace_id: str) -> None:
        with self._lock:
            self._require_workspace(workspace_id)
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.execute(
                    "DELETE FROM item_versions WHERE workspace_id = ?",
                    (workspace_id,),
                )
                self._conn.execute(
                    "DELETE FROM workspace_users WHERE workspace_id = ?",
                    (workspace_id,),
                )
                self._conn.execute(
                    "DELETE FROM workspaces WHERE workspace_id = ?",
                    (workspace_id,),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- introspection ---------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            users = self._conn.execute("SELECT COUNT(*) FROM users").fetchone()[0]
            workspaces = self._conn.execute(
                "SELECT COUNT(*) FROM workspaces"
            ).fetchone()[0]
            items = self._conn.execute(
                "SELECT COUNT(DISTINCT item_id) FROM item_versions"
            ).fetchone()[0]
            versions = self._conn.execute(
                "SELECT COUNT(*) FROM item_versions"
            ).fetchone()[0]
        return {
            "users": users,
            "workspaces": workspaces,
            "items": items,
            "versions": versions,
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- helpers --------------------------------------------------------------------

    def _insert(self, m: ItemMetadata) -> None:
        self._conn.execute(
            "INSERT INTO item_versions(item_id, version, workspace_id, filename,"
            " status, is_folder, size, checksum, chunks, modified_at, device_id)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                m.item_id,
                m.version,
                m.workspace_id,
                m.filename,
                m.status,
                int(m.is_folder),
                m.size,
                m.checksum,
                digests_blob(m.chunks),
                m.modified_at,
                m.device_id,
            ),
        )

    @staticmethod
    def _row_to_item(row) -> ItemMetadata:
        return ItemMetadata(
            item_id=row[0],
            version=row[1],
            workspace_id=row[2],
            filename=row[3],
            status=row[4],
            is_folder=bool(row[5]),
            size=row[6],
            checksum=row[7],
            chunks=blob_digests(row[8]),
            modified_at=row[9],
            device_id=row[10],
        )

    def _require_workspace(self, workspace_id: str) -> None:
        if not self.workspace_exists(workspace_id):
            raise UnknownWorkspace(f"workspace {workspace_id!r} is not registered")
