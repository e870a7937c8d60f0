"""Workspace-partitioned metadata plane: N engines behind one DAO.

The paper deploys a *single* PostgreSQL server — adequate for its
testbed, but the obvious scalability ceiling of the architecture once
the SyncService pool itself is elastic.  This module removes that
ceiling without giving up the consistency contract: a
:class:`ShardedMetadataBackend` composes N fully independent
:class:`~repro.metadata.base.MetadataBackend` engines (memory or SQLite,
one database file each) and routes every operation to exactly one of
them by consistent-hashing the ``workspace_id``
(:class:`~repro.routing.shard.ShardRouter`).

Why this preserves Algorithm 1's guarantees with *zero* cross-shard
transactions:

* a workspace lives entirely on one shard, so every version chain is
  owned by a single ACID engine — first-writer-wins races between
  SyncService instances still serialize inside that engine exactly as
  before;
* users and devices are *broadcast* to every shard (tiny, write-rarely
  tables), so ``create_workspace``'s owner check and ``grant_access``'s
  user check resolve locally on whichever shard owns the workspace;
* a commitRequest bundle only ever carries items of one workspace
  (Algorithm 1 operates per workspace), so
  :meth:`store_versions_bulk` is still one transaction on one engine in
  the common case — and when handed a mixed bundle it degrades to one
  transaction per involved shard with per-item outcomes reassembled in
  input order.

Item reads route by the item id itself: the model derives every id as
``"{workspace_id}:{filename}"`` and no workspace id holds a ``:``, so the
id's first ``:`` ends the owning workspace.

Rebalancing: :meth:`migrate_workspace` moves one workspace between
shards under a write fence — wait out the writes already admitted,
export, import, verify per-item history lengths, flip a routing
override, drop the source copy.  The fence blocks writes for that
workspace only; all other workspaces commit concurrently throughout.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Collection, Dict, Iterator, List, Optional, Sequence

from repro.errors import MetadataError
from repro.metadata.base import BulkOutcome, MetadataBackend, engine_instances
from repro.metadata.memory_backend import MemoryMetadataBackend
from repro.metadata.sqlite_backend import SqliteMetadataBackend
from repro.routing.shard import ShardRouter
from repro.sync.models import ItemMetadata, Workspace
from repro.telemetry.registry import REGISTRY


def workspace_of_item(item_id: str) -> Optional[str]:
    """The workspace of an item id, or None for an id no item can have.

    :class:`~repro.sync.models.ItemMetadata` derives every id as
    :func:`~repro.sync.models.make_item_id` of its workspace and filename, and
    :class:`~repro.sync.models.Workspace` refuses a ``:`` in its id, so the
    workspace is everything before the id's first ``:``.
    """
    workspace_id, colon, _filename = item_id.partition(":")
    return workspace_id if colon else None


class ShardedMetadataBackend(MetadataBackend):
    """N independent metadata engines routed by workspace id.

    Args:
        engines: One :class:`MetadataBackend` per shard, index = shard id.
        router: Optional pre-built router; must agree on the shard count.
    """

    def __init__(
        self,
        engines: Sequence[MetadataBackend],
        router: Optional[ShardRouter] = None,
    ) -> None:
        if not engines:
            raise ValueError("need at least one engine")
        if router is not None and router.num_shards != len(engines):
            raise ValueError(
                f"router covers {router.num_shards} shards "
                f"but {len(engines)} engines were given"
            )
        self.engines: List[MetadataBackend] = list(engines)
        self.router = router or ShardRouter(len(engines))
        # Post-migration routing exceptions: workspace_id -> shard index.
        self._overrides: Dict[str, int] = {}
        # Write fence, guarded by one condition: the workspaces migrating,
        # and per workspace its admitted, unfinished writes (zeros stay).
        self._fence = threading.Condition()
        self._fenced: set = set()
        self._inflight: Counter = Counter()
        self._migrations = REGISTRY.counter(
            "metadata_workspace_migrations_total"
        )
        self._source_tokens = [
            REGISTRY.register_source(
                "metadata_shard",
                engine,
                lambda e: {k: float(v) for k, v in e.counts().items()},
                shard=str(shard),
                backend=type(engine).__name__,
            )
            for shard, engine in enumerate(self.engines)
        ]
        REGISTRY.register_source(
            "metadata_sharded",
            self,
            ShardedMetadataBackend._scrape,
            instance=next(engine_instances),
        )

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def memory(cls, shards: int) -> "ShardedMetadataBackend":
        """*shards* in-memory engines."""
        return cls([MemoryMetadataBackend() for _ in range(shards)])

    @classmethod
    def sqlite(cls, path_prefix: str, shards: int) -> "ShardedMetadataBackend":
        """*shards* SQLite engines, one database file each.

        ``path_prefix=":memory:"`` yields independent in-memory
        databases; otherwise shard *k* lives at
        ``{path_prefix}.shard{k}.db``.
        """
        return cls([
            SqliteMetadataBackend(
                path_prefix if path_prefix == ":memory:" else f"{path_prefix}.shard{k}.db"
            )
            for k in range(shards)
        ])

    # -- routing ---------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.engines)

    def shard_for_workspace(self, workspace_id: str) -> int:
        """Owning shard: migration overrides win over the hash ring."""
        override = self._overrides.get(workspace_id)
        if override is not None:
            return override
        return self.router.shard_for(workspace_id)

    def engine_for_workspace(self, workspace_id: str) -> MetadataBackend:
        return self.engines[self.shard_for_workspace(workspace_id)]

    def _engine_for_item(self, item_id: str) -> Optional[MetadataBackend]:
        workspace_id = workspace_of_item(item_id)
        if workspace_id is None:
            return None
        return self.engine_for_workspace(workspace_id)

    @contextmanager
    def _writing(self, workspace_ids: Collection[str]) -> Iterator[None]:
        """Admit one write to *workspace_ids* for the ``with`` body.

        Waiting out fences and counting the write in flight happen under
        the one fence condition, so either the write is admitted first
        and :meth:`migrate_workspace` waits for it before exporting, or
        the fence lands first and the write waits, then routes (inside
        the body) to the new shard.
        """
        with self._fence:
            self._fence.wait_for(lambda: self._fenced.isdisjoint(workspace_ids))
            self._inflight.update(workspace_ids)
        try:
            yield
        finally:
            with self._fence:
                self._inflight.subtract(workspace_ids)
                if self._fenced:
                    self._fence.notify_all()

    def _scrape(self) -> Dict[str, float]:
        """Registry source: the composite's routing state (always up)."""
        return {
            "up": 1.0,
            "shards": self.num_shards,
            "overrides": len(self._overrides),
            "fenced": len(self._fenced),
        }

    # -- accounts & workspaces (users/devices broadcast, workspaces routed) ----------

    def create_user(self, user_id: str, name: str = "") -> None:
        for engine in self.engines:
            engine.create_user(user_id, name)

    def create_workspace(self, workspace: Workspace) -> None:
        with self._writing((workspace.workspace_id,)):
            self.engine_for_workspace(workspace.workspace_id).create_workspace(
                workspace
            )

    def grant_access(self, workspace_id: str, user_id: str) -> None:
        with self._writing((workspace_id,)):
            self.engine_for_workspace(workspace_id).grant_access(
                workspace_id, user_id
            )

    def workspaces_for(self, user_id: str) -> List[Workspace]:
        merged: Dict[str, Workspace] = {}
        for engine in self.engines:
            for workspace in engine.workspaces_for(user_id):
                merged.setdefault(workspace.workspace_id, workspace)
        return sorted(merged.values(), key=lambda w: w.workspace_id)

    def workspace_exists(self, workspace_id: str) -> bool:
        return self.engine_for_workspace(workspace_id).workspace_exists(
            workspace_id
        )

    # -- devices (broadcast like users) ----------------------------------------------

    def register_device(self, user_id: str, device_id: str, name: str = "") -> None:
        for engine in self.engines:
            engine.register_device(user_id, device_id, name)

    def devices_for(self, user_id: str) -> List[str]:
        return self.engines[0].devices_for(user_id)

    # -- item versions ---------------------------------------------------------------

    def get_current(self, item_id: str) -> Optional[ItemMetadata]:
        engine = self._engine_for_item(item_id)
        return engine.get_current(item_id) if engine else None

    def store_versions_bulk(
        self, proposals: List[ItemMetadata]
    ) -> List[BulkOutcome]:
        """Route a bundle; outcomes come back in input order.

        A commitRequest bundle normally targets one workspace and hence
        one shard — one transaction, exactly as unsharded.  Mixed
        bundles are split into one transaction per involved shard;
        per-item first-writer-wins semantics are unchanged because each
        item's whole history lives on its own shard.
        """
        with self._writing({p.workspace_id for p in proposals}):
            groups: Dict[int, List[int]] = {}
            for index, proposal in enumerate(proposals):
                shard = self.shard_for_workspace(proposal.workspace_id)
                groups.setdefault(shard, []).append(index)
            if len(groups) == 1:
                shard = next(iter(groups))
                return self.engines[shard].store_versions_bulk(proposals)
            outcomes: List[Optional[BulkOutcome]] = [None] * len(proposals)
            for shard, indices in groups.items():
                shard_outcomes = self.engines[shard].store_versions_bulk(
                    [proposals[i] for i in indices]
                )
                for i, outcome in zip(indices, shard_outcomes):
                    outcomes[i] = outcome
            return outcomes  # type: ignore[return-value]

    def get_workspace_state(self, workspace_id: str) -> List[ItemMetadata]:
        return self.engine_for_workspace(workspace_id).get_workspace_state(
            workspace_id
        )

    def item_history(self, item_id: str) -> List[ItemMetadata]:
        engine = self._engine_for_item(item_id)
        return engine.item_history(item_id) if engine else []

    # -- rebalancing -----------------------------------------------------------------

    def migrate_workspace(self, workspace_id: str, target_shard: int) -> Dict[str, int]:
        """Move one workspace to *target_shard* under a write fence.

        Sequence: fence writes for this workspace → wait for the writes
        already admitted to finish → export from the source engine →
        import into the target → verify every item's history length
        survived the copy → flip the routing override → drop the source
        copy → lift the fence.  On verification failure
        the half-imported copy is dropped from the target and routing is
        untouched, so the source remains authoritative.

        Returns a summary dict (source/target shard, items, versions).
        """
        if not 0 <= target_shard < self.num_shards:
            raise ValueError(f"no shard {target_shard}")
        with self._fence:
            if workspace_id in self._fenced:
                raise MetadataError(
                    f"workspace {workspace_id!r} is already migrating"
                )
            source_shard = self.shard_for_workspace(workspace_id)
            if source_shard == target_shard:
                return {
                    "source": source_shard,
                    "target": target_shard,
                    "items": 0,
                    "versions": 0,
                }
            self._fenced.add(workspace_id)
        try:
            with self._fence:
                self._fence.wait_for(lambda: not self._inflight[workspace_id])
            source = self.engines[source_shard]
            target = self.engines[target_shard]
            dump = source.export_workspace(workspace_id)
            target.import_workspace(dump)
            for item_id, chain in dump.versions.items():
                moved = target.item_history(item_id)
                if len(moved) != len(chain):
                    target.drop_workspace(workspace_id)
                    raise MetadataError(
                        f"migration verification failed for {item_id!r}: "
                        f"{len(moved)} != {len(chain)} versions"
                    )
            self._overrides[workspace_id] = target_shard
            source.drop_workspace(workspace_id)
            self._migrations.inc()
            return {
                "source": source_shard,
                "target": target_shard,
                "items": dump.item_count,
                "versions": dump.version_count,
            }
        finally:
            with self._fence:
                self._fenced.discard(workspace_id)
                self._fence.notify_all()

    # -- introspection ---------------------------------------------------------------

    def shard_counts(self) -> List[Dict[str, int]]:
        """Per-shard row counts, index = shard id."""
        return [engine.counts() for engine in self.engines]

    def counts(self) -> Dict[str, int]:
        """Aggregate counts: users are replicated (max), the rest sum."""
        per_shard = self.shard_counts()
        return {
            "users": max(c["users"] for c in per_shard),
            "workspaces": sum(c["workspaces"] for c in per_shard),
            "items": sum(c["items"] for c in per_shard),
            "versions": sum(c["versions"] for c in per_shard),
        }

    def close(self) -> None:
        for token in self._source_tokens:  # a closed engine cannot be scraped
            REGISTRY.unregister_source(token)
        for engine in self.engines:
            engine.close()
