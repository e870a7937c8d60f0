"""Metadata back-end interface (the PostgreSQL role in the paper).

The SyncService interacts with the back-end through this Data Access
Object; the paper stresses that the implementation is "modular and may be
replaced easily".  Two implementations ship: an in-memory engine
(:mod:`repro.metadata.memory_backend`) and a SQLite engine with real ACID
transactions (:mod:`repro.metadata.sqlite_backend`).

Consistency contract used by Algorithm 1 (§4.2): an engine decides a
proposal in exactly one place, :meth:`MetadataBackend.store_versions_bulk`
— inside one transaction, commit iff the version is ``current + 1`` —
so two SyncService instances racing on the same item serialize: the
first commit wins and the second is reported as a conflict with the
winner attached (first-writer-wins, no rollback ever needed).
``store_new_object`` / ``store_new_version`` are that body called with a
bundle of one.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TransactionAborted
from repro.sync.models import ItemMetadata, Workspace
from repro.telemetry.trace import TRACER

#: Per-proposal outcome of :meth:`MetadataBackend.store_versions_bulk`:
#: ``(committed, current)`` — ``current`` is the winning server-side
#: metadata when the proposal lost its first-writer-wins race (None when
#: the proposal committed, or when the item does not exist at all).
BulkOutcome = Tuple[bool, Optional[ItemMetadata]]

#: Numbers engines for the ``instance`` label of their registry source, so
#: two engines of one kind (the shards of one deployment) stay distinct
#: ``/health`` components.
engine_instances = itertools.count(1)


@dataclass
class WorkspaceDump:
    """A self-contained export of one workspace, for shard migration.

    ``users`` carries ``(user_id, name)`` for every user on the ACL so an
    import can recreate missing accounts; ``versions`` maps each item to
    its complete version chain, oldest first, including deleted items —
    a migrated workspace must replay byte-identical histories.
    """

    workspace: Workspace
    users: List[Tuple[str, str]] = field(default_factory=list)
    acl: List[str] = field(default_factory=list)
    versions: Dict[str, List[ItemMetadata]] = field(default_factory=dict)

    @property
    def item_count(self) -> int:
        return len(self.versions)

    @property
    def version_count(self) -> int:
        return sum(len(chain) for chain in self.versions.values())


class MetadataBackend(ABC):
    """Abstract DAO over users, workspaces and versioned item metadata."""

    def transaction_span(self, proposals: int):
        """Telemetry span for one commit transaction.

        Every engine wraps its :meth:`store_versions_bulk` body in this so
        the trace tree attributes back-end time to the ``metadata`` layer
        regardless of which implementation is plugged in.
        """
        attrs = None  # nothing is built for a tracer that is off
        if TRACER.enabled:
            attrs = {"backend": type(self).__name__, "proposals": proposals}
        return TRACER.span("metadata.txn", layer="metadata", attrs=attrs)

    # -- accounts & workspaces ---------------------------------------------------

    @abstractmethod
    def create_user(self, user_id: str, name: str = "") -> None:
        """Register a user (idempotent)."""

    @abstractmethod
    def create_workspace(self, workspace: Workspace) -> None:
        """Register a workspace owned by an existing user (idempotent)."""

    @abstractmethod
    def grant_access(self, workspace_id: str, user_id: str) -> None:
        """Give *user_id* access to *workspace_id* (sharing)."""

    @abstractmethod
    def workspaces_for(self, user_id: str) -> List[Workspace]:
        """Workspaces the user owns or was granted access to."""

    @abstractmethod
    def workspace_exists(self, workspace_id: str) -> bool:
        """True when the workspace is registered."""

    # -- devices ---------------------------------------------------------------------

    @abstractmethod
    def register_device(self, user_id: str, device_id: str, name: str = "") -> None:
        """Record a device of *user_id* (idempotent; updates the name)."""

    @abstractmethod
    def devices_for(self, user_id: str) -> List[str]:
        """Device ids registered by the user, sorted."""

    # -- item versions -------------------------------------------------------------

    @abstractmethod
    def get_current(self, item_id: str) -> Optional[ItemMetadata]:
        """Latest committed version of *item_id*, or None."""

    @abstractmethod
    def store_versions_bulk(
        self, proposals: List[ItemMetadata]
    ) -> List[BulkOutcome]:
        """Commit every proposal of one commitRequest, one outcome each.

        The whole bundle runs as a *single* back-end transaction (one
        fsync / one lock acquisition instead of N), but conflict semantics
        stay per item: a proposal that loses its first-writer-wins version
        check is skipped — reported as ``(False, current)`` — without
        aborting its siblings, exactly as if it had been committed alone.
        Proposals later in the bundle observe the effects of earlier ones,
        so a client may bundle v2 and v3 of the same item.  An unknown
        ``workspace_id`` anywhere in the bundle raises
        :class:`~repro.errors.UnknownWorkspace` before anything is stored.
        """

    def store_new_object(self, metadata: ItemMetadata) -> None:
        """Atomically insert the first version of a new item."""
        self._store_one(metadata, first=True)

    def store_new_version(self, metadata: ItemMetadata) -> None:
        """Atomically append the next version of an existing item."""
        self._store_one(metadata, first=False)

    def _store_one(self, metadata: ItemMetadata, first: bool) -> None:
        """Algorithm 1 on a bundle of one; a proposal that loses aborts."""
        if (metadata.version == 1) != first:
            raise TransactionAborted(
                f"version {metadata.version} of {metadata.item_id!r} is not "
                f"a {'first' if first else 'successor'} version"
            )
        ((committed, current),) = self.store_versions_bulk([metadata])
        if not committed:
            raise TransactionAborted(
                f"version {metadata.version} of {metadata.item_id!r} lost; "
                f"current version: {current and current.version}"
            )

    @abstractmethod
    def get_workspace_state(self, workspace_id: str) -> List[ItemMetadata]:
        """Latest version of every non-deleted item in the workspace."""

    @abstractmethod
    def item_history(self, item_id: str) -> List[ItemMetadata]:
        """All committed versions of *item_id*, oldest first."""

    # -- migration (optional capability) -------------------------------------------

    def export_workspace(self, workspace_id: str) -> "WorkspaceDump":
        """Full dump of one workspace: record, ACL, every item version.

        The migration primitive of the sharded metadata plane
        (:meth:`repro.metadata.sharded.ShardedMetadataBackend.migrate_workspace`)
        moves a workspace between shards via export → import → drop.
        Engines that do not support migration may leave these three
        methods unimplemented; everything else works without them.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support workspace export"
        )

    def import_workspace(self, dump: "WorkspaceDump") -> None:
        """Load an :meth:`export_workspace` dump into this engine.

        Users referenced by the ACL are created idempotently; importing a
        workspace that already exists here raises
        :class:`~repro.errors.MetadataError` (a migration must never
        silently merge histories).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support workspace import"
        )

    def drop_workspace(self, workspace_id: str) -> None:
        """Remove a workspace, its ACL and all its item versions.

        Users and devices are global (not workspace-scoped) and stay.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support workspace drop"
        )

    # -- introspection ---------------------------------------------------------------

    @abstractmethod
    def counts(self) -> Dict[str, int]:
        """Row counts per logical table, for tests and monitoring."""

    def close(self) -> None:
        """Release resources; default no-op."""
