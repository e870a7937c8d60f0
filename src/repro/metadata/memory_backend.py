"""In-memory metadata back-end.

A lock-serialized engine with the same atomicity contract as the SQLite
back-end, used by large simulations and most tests where durability is
irrelevant but speed matters.

An item is one list: each version a commit superseded as a ``bytes`` record,
then the current :class:`ItemMetadata`, which reads return as stored.  A
superseded version is its item's ``record`` (see :class:`ItemMetadata`) and its
device's index in the engine's device table, in 4 bytes; its position is its
version, and its workspace and filename are the current one's.  Only
:meth:`item_history` unpacks records, which the garbage collector does not
track.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set

from repro.errors import MetadataError, UnknownWorkspace
from repro.metadata.base import MetadataBackend
from repro.sync.models import STATUS_DELETED, ItemMetadata, Workspace
from repro.telemetry.trace import TRACER


class MemoryMetadataBackend(MetadataBackend):
    """Dictionary-backed implementation guarded by one re-entrant lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._users: Set[str] = set()
        self._workspaces: Dict[str, Workspace] = {}
        self._acl: Dict[str, Set[str]] = {}  # workspace_id -> user ids
        self._versions: Dict[str, list] = {}  # item -> records, then current
        self._device_ids: List[str] = []  # a record's device -> its id
        self._device_codes: Dict[str, int] = {}  # and back
        self._workspace_items: Dict[str, Set[str]] = {}
        self._register_source("metadata_memory")

    def _scrape(self) -> Dict[str, float]:
        """Registry source: the engine answers a trivial read."""
        with self._lock:
            return {
                "up": 1.0,
                "users": len(self._users),
                "workspaces": len(self._workspaces),
            }

    # -- accounts & workspaces ---------------------------------------------------

    def create_user(self, user_id: str) -> None:
        with self._lock:
            self._users.add(user_id)

    def create_workspace(self, workspace: Workspace) -> None:
        with self._lock:
            if workspace.owner not in self._users:
                raise MetadataError(f"unknown owner {workspace.owner!r}")
            self._workspaces.setdefault(workspace.workspace_id, workspace)
            self._acl.setdefault(workspace.workspace_id, set()).add(workspace.owner)
            self._workspace_items.setdefault(workspace.workspace_id, set())

    def grant_access(self, workspace_id: str, user_id: str) -> None:
        with self._lock:
            self._require_workspace(workspace_id)
            if user_id not in self._users:
                raise MetadataError(f"unknown user {user_id!r}")
            self._acl[workspace_id].add(user_id)

    def workspaces_for(self, user_id: str) -> List[Workspace]:
        with self._lock:
            return sorted(
                (
                    self._workspaces[wid]
                    for wid, users in self._acl.items()
                    if user_id in users
                ),
                key=lambda w: w.workspace_id,
            )

    def workspace_exists(self, workspace_id: str) -> bool:
        with self._lock:
            return workspace_id in self._workspaces

    # -- item versions -------------------------------------------------------------

    def store_versions_bulk(self, proposals):
        """Algorithm 1 for this engine: the bundle under one lock cycle."""
        outcomes = []
        with self._traced_transaction(proposals) if TRACER.enabled else self._lock:
            for proposal in proposals:  # refuse an unknown workspace before storing any
                if proposal.workspace_id not in self._workspaces:
                    self._require_workspace(proposal.workspace_id)  # raises
            for proposal in proposals:
                versions = self._versions.get(proposal.item_id)
                current = versions[-1] if versions else None
                expected = 1 if current is None else current.version + 1
                if proposal.version != expected:
                    outcomes.append((False, current))
                    continue
                if versions is None:
                    self._versions[proposal.item_id] = [proposal]
                    self._workspace_items[proposal.workspace_id].add(
                        proposal.item_id
                    )
                else:
                    versions[-1] = self._pack(current)
                    versions.append(proposal)
                outcomes.append((True, None))
        return outcomes

    def get_workspace_state(self, workspace_id: str) -> List[ItemMetadata]:
        with self._lock:
            self._require_workspace(workspace_id)
            state = []
            for item_id in self._workspace_items.get(workspace_id, ()):
                current = self._versions[item_id][-1]
                if current.status != STATUS_DELETED:
                    state.append(current)
            return sorted(state, key=lambda m: m.item_id)

    def item_history(self, item_id: str) -> List[ItemMetadata]:
        with self._lock:
            versions = self._versions.get(item_id, [])
            return [
                ItemMetadata.from_record(
                    versions[-1].workspace_id, number, versions[-1].filename, record[:-4],
                    self._device_ids[int.from_bytes(record[-4:], "little")],
                )
                for number, record in enumerate(versions[:-1], 1)
            ] + versions[-1:]

    # -- introspection ---------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "users": len(self._users),
                "workspaces": len(self._workspaces),
                "items": len(self._versions),
                "versions": sum(len(v) for v in self._versions.values()),
            }

    def _pack(self, m: ItemMetadata) -> bytes:
        """*m* as a superseded version's record (see the module docstring)."""
        device = self._device_codes.setdefault(m.device_id, len(self._device_ids))
        if device == len(self._device_ids):
            self._device_ids.append(m.device_id)
        return m.record + device.to_bytes(4, "little")

    def _require_workspace(self, workspace_id: str) -> None:
        if workspace_id not in self._workspaces:
            raise UnknownWorkspace(f"workspace {workspace_id!r} is not registered")
