"""Chunk garbage collection for the Storage back-end.

StackSync stores chunks forever by default: removing a file only writes a
DELETED metadata version, and old file versions keep referencing their
chunks.  A production deployment must eventually reclaim space.  This
module implements a mark-and-sweep collector:

* **mark** — walk the metadata back-end and collect every fingerprint
  referenced by any *retained* version (the latest ``keep_versions``
  versions of each item, plus everything younger than ``grace_seconds``);
* **sweep** — delete all objects in the user's container whose name is
  not marked.

The grace window makes the collector safe against the protocol's one
benign race: a client uploads chunks *before* its commitRequest is
processed (§4.1), so a freshly uploaded chunk may be unreferenced for a
moment.  Anything younger than the grace window is never swept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.storage.object_store import SwiftLikeStore

if TYPE_CHECKING:  # avoid a circular import: metadata.base imports sync.models
    from repro.metadata.base import MetadataBackend


@dataclass
class GcReport:
    """Outcome of one collection run over one container."""

    container: str
    live_chunks: int = 0
    swept_chunks: int = 0
    swept_bytes: int = 0
    kept_recent: int = 0
    swept: List[str] = field(default_factory=list)


class ChunkGarbageCollector:
    """Mark-and-sweep over (metadata back-end, object store) pairs."""

    def __init__(
        self,
        metadata: "MetadataBackend",
        storage: SwiftLikeStore,
        keep_versions: int = 1,
        grace_seconds: float = 3600.0,
    ):
        """
        Args:
            metadata: Source of truth for referenced fingerprints.
            storage: The store whose containers are swept.
            keep_versions: How many trailing versions of each item keep
                their chunks alive (1 = only the current version; higher
                values preserve rollback ability).
            grace_seconds: Objects uploaded more recently than this are
                never swept (in-flight commit protection).
        """
        if keep_versions < 1:
            raise ValueError("keep_versions must be >= 1")
        self.metadata = metadata
        self.storage = storage
        self.keep_versions = keep_versions
        self.grace_seconds = grace_seconds

    # -- mark ---------------------------------------------------------------------

    def live_fingerprints(self, workspace_ids: List[str]) -> Set[str]:
        """Fingerprints referenced by retained versions of the workspaces, in
        hex: the names the store files their chunks under."""
        live: Set[str] = set()
        for workspace_id in workspace_ids:
            for current in self.metadata.get_workspace_state(workspace_id):
                history = self.metadata.item_history(current.item_id)
                for version in history[-self.keep_versions :]:
                    live.update(chunk.hex() for chunk in version.chunks)
        # Items whose *current* version is DELETED no longer appear in the
        # workspace state; their old chunks are garbage by definition
        # (unless keep_versions covers them via another item).
        return live

    # -- sweep ---------------------------------------------------------------------

    def collect(
        self,
        container: str,
        workspace_ids: List[str],
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> GcReport:
        """Run one mark-and-sweep pass over *container*."""
        now = time.time() if now is None else now
        live = self.live_fingerprints(workspace_ids)
        report = GcReport(container=container, live_chunks=len(live))

        for name in self.storage.list_container(container):
            if name in live:
                continue
            uploaded_at = self.storage.put_time(container, name)
            if uploaded_at is not None and now - uploaded_at < self.grace_seconds:
                report.kept_recent += 1
                continue
            # Objects with unknown age are treated as old: every upload
            # through the proxy is timestamped, so an unknown object is a
            # leak — exactly what GC exists to reclaim.
            size = self.storage.object_size(container, name) or 0
            if not dry_run:
                self.storage.delete_object(container, name)
            report.swept_chunks += 1
            report.swept_bytes += size
            report.swept.append(name)
        return report
