"""In-memory metadata back-end.

A lock-serialized engine with the same atomicity contract as the SQLite
back-end, used by large simulations and most tests where durability is
irrelevant but speed matters.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set

from repro.errors import MetadataError, UnknownWorkspace
from repro.metadata.base import MetadataBackend, WorkspaceDump
from repro.sync.models import STATUS_DELETED, ItemMetadata, Workspace
from repro.telemetry.control import HEALTH


class MemoryMetadataBackend(MetadataBackend):
    """Dictionary-backed implementation guarded by one re-entrant lock.

    Args:
        probe_name: Health-registry component name; shard deployments pass
            distinct names so ``/health`` tells the engines apart.
    """

    def __init__(self, probe_name: Optional[str] = None) -> None:
        self._lock = threading.RLock()
        self._users: Dict[str, str] = {}
        self._workspaces: Dict[str, Workspace] = {}
        self._acl: Dict[str, Set[str]] = {}  # workspace_id -> user ids
        self._versions: Dict[str, List[ItemMetadata]] = {}  # item -> versions
        self._workspace_items: Dict[str, Set[str]] = {}
        self._devices: Dict[str, Dict[str, str]] = {}  # user -> {device: name}
        HEALTH.register(
            probe_name or "metadata:memory", self, MemoryMetadataBackend._health_probe
        )

    def _health_probe(self) -> Dict[str, object]:
        """Ops-endpoint probe: the engine answers a trivial read."""
        with self._lock:
            return {
                "ok": True,
                "users": len(self._users),
                "workspaces": len(self._workspaces),
            }

    # -- accounts & workspaces ---------------------------------------------------

    def create_user(self, user_id: str, name: str = "") -> None:
        with self._lock:
            self._users.setdefault(user_id, name or user_id)

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

    # -- devices ---------------------------------------------------------------------

    def register_device(self, user_id: str, device_id: str, name: str = "") -> None:
        with self._lock:
            if user_id not in self._users:
                raise MetadataError(f"unknown user {user_id!r}")
            self._devices.setdefault(user_id, {})[device_id] = name or device_id

    def devices_for(self, user_id: str) -> List[str]:
        with self._lock:
            return sorted(self._devices.get(user_id, {}))

    # -- item versions -------------------------------------------------------------

    def get_current(self, item_id: str) -> Optional[ItemMetadata]:
        with self._lock:
            versions = self._versions.get(item_id)
            return versions[-1] if versions else None

    def store_versions_bulk(self, proposals):
        """Algorithm 1 for this engine: the bundle under one lock cycle."""
        outcomes = []
        with self.transaction_span(len(proposals)), self._lock:
            for proposal in proposals:  # before anything is stored
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
            return list(self._versions.get(item_id, ()))

    # -- migration -------------------------------------------------------------------

    def export_workspace(self, workspace_id: str) -> WorkspaceDump:
        with self._lock:
            self._require_workspace(workspace_id)
            acl = sorted(self._acl.get(workspace_id, ()))
            return WorkspaceDump(
                workspace=self._workspaces[workspace_id],
                users=[(u, self._users.get(u, u)) for u in acl],
                acl=acl,
                versions={
                    item_id: list(self._versions[item_id])
                    for item_id in sorted(self._workspace_items.get(workspace_id, ()))
                },
            )

    def import_workspace(self, dump: WorkspaceDump) -> None:
        workspace_id = dump.workspace.workspace_id
        with self._lock:
            if workspace_id in self._workspaces:
                raise MetadataError(
                    f"workspace {workspace_id!r} already exists here; "
                    "refusing to merge histories"
                )
            for user_id, name in dump.users:
                self._users.setdefault(user_id, name or user_id)
            self._workspaces[workspace_id] = dump.workspace
            self._acl[workspace_id] = set(dump.acl) | {dump.workspace.owner}
            self._workspace_items[workspace_id] = set(dump.versions)
            for item_id, chain in dump.versions.items():
                self._versions[item_id] = list(chain)

    def drop_workspace(self, workspace_id: str) -> None:
        with self._lock:
            self._require_workspace(workspace_id)
            for item_id in self._workspace_items.pop(workspace_id, set()):
                self._versions.pop(item_id, None)
            self._acl.pop(workspace_id, None)
            self._workspaces.pop(workspace_id, None)

    # -- introspection ---------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "users": len(self._users),
                "workspaces": len(self._workspaces),
                "items": len(self._versions),
                "versions": sum(len(v) for v in self._versions.values()),
            }

    def _require_workspace(self, workspace_id: str) -> None:
        if workspace_id not in self._workspaces:
            raise UnknownWorkspace(f"workspace {workspace_id!r} is not registered")
