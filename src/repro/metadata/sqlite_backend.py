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
from repro.metadata.base import MetadataBackend, WorkspaceDump, engine_instances
from repro.sync.models import STATUS_DELETED, VALID_STATUSES, ItemMetadata, Workspace
from repro.telemetry.registry import REGISTRY

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
CREATE TABLE IF NOT EXISTS items (
    id INTEGER PRIMARY KEY,
    item_id TEXT NOT NULL UNIQUE,
    workspace_id TEXT NOT NULL REFERENCES workspaces(workspace_id),
    filename TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_items_ws ON items(workspace_id, item_id);
CREATE TABLE IF NOT EXISTS versions (
    item INTEGER NOT NULL REFERENCES items(id),
    version INTEGER NOT NULL,
    status INTEGER NOT NULL,
    is_folder INTEGER NOT NULL,
    size INTEGER NOT NULL,
    checksum BLOB NOT NULL,
    chunks BLOB NOT NULL,
    modified_at REAL NOT NULL,
    device_id TEXT NOT NULL,
    PRIMARY KEY (item, version)
) WITHOUT ROWID;
"""


#: ``PRAGMA user_version`` of a metadata file in the current layout.  Version 3
#: keeps an item's workspace and filename in its ``items`` row alone; version 2
#: let a version name others, version 1 repeated the item's identity in every
#: version row, and the unstamped layout held digests as hex.
SCHEMA_VERSION = 3

#: One empty database per schema, built once and copied into each new file.
_TEMPLATES: Dict[str, sqlite3.Connection] = {}
_TEMPLATES_LOCK = threading.Lock()


def open_schema(conn: sqlite3.Connection, schema: str, version: int) -> None:
    """Lay *schema* at *version* into a new database, or check a file is in it.

    A file of another layout would be misread row by row, so it is refused.
    A new database is a page copy of a prebuilt empty one, which is cheaper
    than running the schema's statements again.
    """
    found = conn.execute("PRAGMA user_version").fetchone()[0]
    if found == version:
        return
    if found or conn.execute("SELECT 1 FROM sqlite_master").fetchone():
        conn.close()
        raise MetadataError(
            f"database is in schema version {found}; this build reads only {version}"
        )
    with _TEMPLATES_LOCK:
        template = _TEMPLATES.get(schema)
        if template is None:
            template = sqlite3.connect(":memory:", check_same_thread=False)
            template.executescript(schema)
            template.execute(f"PRAGMA user_version = {version}")
            _TEMPLATES[schema] = template
        template.backup(conn)


#: Columns and joined tables that every reader of a stored version selects, in
#: :meth:`SqliteMetadataBackend._row_to_item` order.
_ITEM = (
    "i.workspace_id, v.version, i.filename, v.status, v.is_folder, v.size,"
    " v.checksum, v.chunks, v.modified_at, v.device_id"
    " FROM items i JOIN versions v ON v.item = i.id"
)


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
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.isolation_level = None  # manual transaction control
        with self._lock:
            open_schema(self._conn, _SCHEMA, SCHEMA_VERSION)
            if path != ":memory:":  # after the copy (WAL refuses other page sizes)
                self._conn.execute("PRAGMA journal_mode=WAL")
        REGISTRY.register_source(
            "metadata_sqlite",
            self,
            SqliteMetadataBackend._scrape,
            instance=next(engine_instances),
        )

    def _scrape(self) -> Dict[str, float]:
        """Registry source: ``up`` once the database answers ``SELECT 1``
        (a database error raises, which the registry reports as down)."""
        with self._lock:
            self._conn.execute("SELECT 1").fetchone()
        return {"up": 1.0}

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
                f"SELECT {_ITEM} WHERE i.item_id = ? ORDER BY v.version DESC LIMIT 1",
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
                    item = self._conn.execute(
                        "SELECT id,"
                        " (SELECT MAX(version) FROM versions WHERE item = items.id)"
                        " FROM items WHERE item_id = ?",
                        (proposal.item_id,),
                    ).fetchone()
                    expected = 1 if item is None or item[1] is None else item[1] + 1
                    if proposal.version != expected:
                        current = item and self._conn.execute(
                            f"SELECT {_ITEM} WHERE v.item = ? AND v.version = ?", item
                        ).fetchone()
                        outcomes.append(
                            (False, self._row_to_item(current) if current else None)
                        )
                        continue
                    self._insert(proposal, item and item[0])
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
                f"SELECT {_ITEM} WHERE i.workspace_id = ? AND v.version ="
                " (SELECT MAX(version) FROM versions WHERE item = i.id)"
                " AND v.status != ? ORDER BY i.item_id",
                (workspace_id, VALID_STATUSES.index(STATUS_DELETED)),
            ).fetchall()
        return [self._row_to_item(r) for r in rows]

    def item_history(self, item_id: str) -> List[ItemMetadata]:
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_ITEM} WHERE i.item_id = ? ORDER BY v.version", (item_id,)
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
                f"SELECT {_ITEM} WHERE i.workspace_id = ?"
                " ORDER BY i.item_id, v.version",
                (workspace_id,),
            ).fetchall()
        versions: Dict[str, List[ItemMetadata]] = {}
        for row in version_rows:
            version = self._row_to_item(row)
            versions.setdefault(version.item_id, []).append(version)
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
                    item = None
                    for m in chain:
                        item = self._insert(m, item)
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
                    "DELETE FROM versions WHERE item IN"
                    " (SELECT id FROM items WHERE workspace_id = ?)",
                    (workspace_id,),
                )
                self._conn.execute(
                    "DELETE FROM items WHERE workspace_id = ?", (workspace_id,)
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
            items = self._conn.execute("SELECT COUNT(*) FROM items").fetchone()[0]
            versions = self._conn.execute("SELECT COUNT(*) FROM versions").fetchone()[0]
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

    def _insert(self, m: ItemMetadata, item: Optional[int]) -> int:
        """Store *m* as a version of the ``items`` row *item*, inserting that row
        first when *item* is None; returns its id."""
        if item is None:
            item = self._conn.execute(
                "INSERT INTO items(item_id, workspace_id, filename) VALUES (?, ?, ?)",
                (m.item_id, m.workspace_id, m.filename),
            ).lastrowid
        self._conn.execute(
            "INSERT INTO versions VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                item,
                m.version,
                VALID_STATUSES.index(m.status),
                int(m.is_folder),
                m.size,
                m.checksum,
                digests_blob(m.chunks),
                m.modified_at,
                m.device_id,
            ),
        )
        return item

    @staticmethod
    def _row_to_item(row) -> ItemMetadata:
        return ItemMetadata(
            workspace_id=row[0],
            version=row[1],
            filename=row[2],
            status=VALID_STATUSES[row[3]],
            is_folder=bool(row[4]),
            size=row[5],
            checksum=row[6],
            chunks=blob_digests(row[7]),
            modified_at=row[8],
            device_id=row[9],
        )

    def _require_workspace(self, workspace_id: str) -> None:
        if not self.workspace_exists(workspace_id):
            raise UnknownWorkspace(f"workspace {workspace_id!r} is not registered")
