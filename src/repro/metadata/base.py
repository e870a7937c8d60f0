"""Metadata back-end interface (the PostgreSQL role in the paper).

The SyncService interacts with the back-end through this Data Access
Object; the paper stresses that the implementation is "modular and may be
replaced easily".  The contract is exactly what its callers use: users,
workspaces and their sharing, the commit of a bundle of versions, the
state and history reads, row counts and ``close``
(``tests/metadata/test_dao_seam.py`` holds it to that).  Two engines
ship: an in-memory one (:mod:`repro.metadata.memory_backend`) and a
SQLite one with real ACID transactions
(:mod:`repro.metadata.sqlite_backend`); :mod:`repro.metadata.sharded`
routes workspaces over several of either.

Consistency contract used by Algorithm 1 (§4.2): an engine decides a
proposal in exactly one place, :meth:`MetadataBackend.store_versions_bulk`
— inside one transaction, commit iff the version is ``current + 1`` —
so two SyncService instances racing on the same item serialize: the
first commit wins and the second is reported as a conflict with the
winner attached (first-writer-wins, no rollback ever needed).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.sync.models import ItemMetadata, Workspace
from repro.telemetry.registry import REGISTRY
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


class MetadataBackend(ABC):
    """Abstract DAO over users, workspaces and versioned item metadata."""

    _source_token: Optional[int] = None  # the engine's ``/health`` source

    @contextmanager
    def _traced_transaction(self, proposals: List[ItemMetadata]):
        """The engine's ``_lock`` held inside a ``metadata.txn`` span.

        Every engine's :meth:`store_versions_bulk` enters this in place of
        its lock when ``TRACER.enabled``, so the trace tree attributes
        back-end time to the ``metadata`` layer whichever engine is plugged
        in; with the tracer off the engine takes its lock alone, at no
        Python call.
        """
        attrs = {"backend": type(self).__name__, "proposals": len(proposals)}
        with TRACER.span("metadata.txn", layer="metadata", attrs=attrs), self._lock:
            yield

    # -- accounts & workspaces ---------------------------------------------------

    @abstractmethod
    def create_user(self, user_id: str) -> None:
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

    # -- item versions -------------------------------------------------------------

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
        :class:`~repro.errors.UnknownWorkspace`, and chunks that share no one
        width raise ``ValueError``, before anything is stored.
        """

    @abstractmethod
    def get_workspace_state(self, workspace_id: str) -> List[ItemMetadata]:
        """Latest version of every non-deleted item in the workspace."""

    @abstractmethod
    def item_history(self, item_id: str) -> List[ItemMetadata]:
        """All committed versions of *item_id*, oldest first."""

    # -- introspection ---------------------------------------------------------------

    @abstractmethod
    def counts(self) -> Dict[str, int]:
        """Row counts per logical table, for tests and monitoring."""

    def _register_source(self, name: str) -> None:
        """List this engine in ``/health`` as *name* until :meth:`close`."""
        self._source_token = REGISTRY.register_source(
            name, self, type(self)._scrape, instance=next(engine_instances)
        )

    def close(self) -> None:
        """Leave ``/health``; an engine with resources releases them too."""
        REGISTRY.unregister_source(self._source_token)
