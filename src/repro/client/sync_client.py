"""The StackSync desktop client (§4.1): the full Watcher→Indexer→commit loop.

A :class:`StackSyncClient` owns:

* a local :class:`~repro.client.fs.Filesystem` (the synced folder),
* a :class:`~repro.client.watcher.PollingWatcher` detecting changes,
* an :class:`~repro.client.indexer.Indexer` (chunker + compressor + per-user
  dedup against the local database),
* a direct connection to the Storage back-end for chunk upload/download
  (data flow), and
* an ObjectMQ proxy to the SyncService plus a bound receiver on the
  workspace fanout for push notifications (control flow).

Control and data flows are fully decoupled, mirroring Fig 4.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.client.chunker import FixedChunker
from repro.client.compression import Compressor, GzipCompressor
from repro.client.fingerprint import sha1_fingerprint
from repro.client.fs import Filesystem, VirtualFilesystem
from repro.client.indexer import Indexer, IndexResult
from repro.client.local_db import LocalDatabase, LocalFileRecord
from repro.client.transfer import (
    DEFAULT_POOL_SIZE,
    ChunkTransferManager,
    TransferRecord,
)
from repro.client.watcher import (
    EVENT_ADD,
    EVENT_REMOVE,
    EVENT_UPDATE,
    FileEvent,
    PollingWatcher,
)
from repro.errors import SyncError
from repro.objectmq.broker import Broker
from repro.storage.object_store import SwiftLikeStore
from repro.telemetry.registry import REGISTRY
from repro.telemetry.trace import TRACER
from repro.sync.interface import (
    SYNC_SERVICE_OID,
    SyncServiceApi,
    workspace_oid,
)
from repro.sync.models import (
    STATUS_DELETED,
    CommitNotification,
    CommitResult,
    ItemMetadata,
    Workspace,
)

logger = logging.getLogger(__name__)


class _WorkspaceReceiver:
    """The remote object bound to the workspace fanout (RemoteWorkspaceApi)."""

    def __init__(self, client: "StackSyncClient"):
        self._client = client

    def notify_commit(self, notification: CommitNotification) -> None:
        self._client._on_notification(notification)


class ClientTrafficStats:
    """Per-client control/storage traffic accounting (thread-safe).

    Inspection happens through the unified metrics registry (the client
    registers :meth:`scrape` as a source labeled by device).  Every chunk
    transfer is counted here and nowhere else; per-transfer latency lives
    in trace spans, so no transfer history is retained.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.storage_up = 0
        self.storage_down = 0
        self.commits_sent = 0
        self.notifications_received = 0
        self.conflicts = 0
        # Per-transfer metrics fed by the ChunkTransferManager.
        self.chunk_uploads = 0
        self.chunk_downloads = 0
        self.upload_seconds = 0.0
        self.download_seconds = 0.0
        self.transfer_retries = 0
        self.transfers_coalesced = 0

    def add_commit(self) -> None:
        with self._lock:
            self.commits_sent += 1

    def add_notification(self) -> None:
        with self._lock:
            self.notifications_received += 1

    def add_conflict(self) -> None:
        with self._lock:
            self.conflicts += 1

    def record_transfer(self, record: TransferRecord) -> None:
        """Account one chunk transfer (called from pool worker threads)."""
        with self._lock:
            if record.coalesced:
                self.transfers_coalesced += 1
                return
            self.transfer_retries += record.attempts - 1
            if record.direction == "up":
                self.chunk_uploads += 1
                self.storage_up += record.nbytes
                self.upload_seconds += record.elapsed
            else:
                self.chunk_downloads += 1
                self.storage_down += record.nbytes
                self.download_seconds += record.elapsed

    def scrape(self) -> Dict[str, float]:
        """Registry-source view (see :mod:`repro.telemetry.registry`)."""
        with self._lock:
            return {
                "storage_up_bytes": self.storage_up,
                "storage_down_bytes": self.storage_down,
                "commits_sent": self.commits_sent,
                "notifications_received": self.notifications_received,
                "conflicts": self.conflicts,
                "chunk_uploads": self.chunk_uploads,
                "chunk_downloads": self.chunk_downloads,
                "upload_seconds": self.upload_seconds,
                "download_seconds": self.download_seconds,
                "transfer_retries": self.transfer_retries,
                "transfers_coalesced": self.transfers_coalesced,
            }


class StackSyncClient:
    """One device syncing one workspace."""

    def __init__(
        self,
        user_id: str,
        workspace: Workspace,
        mom,
        storage: SwiftLikeStore,
        device_id: Optional[str] = None,
        fs: Optional[Filesystem] = None,
        chunker=None,
        compressor: Optional[Compressor] = None,
        shards: int = 1,
        batch_size: int = 1,
        transfer: Optional[ChunkTransferManager] = None,
        transfer_pool_size: int = DEFAULT_POOL_SIZE,
    ):
        self.user_id = user_id
        self.workspace = workspace
        self.device_id = device_id or f"dev-{uuid.uuid4().hex[:8]}"
        self.fs = fs if fs is not None else VirtualFilesystem()
        self.storage = storage
        self.container = f"u-{workspace.owner}"
        self.local_db = LocalDatabase()
        self.indexer = Indexer(
            self.local_db,
            chunker=chunker or FixedChunker(),
            compressor=compressor or GzipCompressor(),
        )
        self.watcher = PollingWatcher(self.fs, on_event=self._on_watch_event)
        self.broker = Broker(mom, environment={"client_id": self.device_id})
        # shards > 1 selects the partitioned commit path: every
        # SyncServiceApi method leads with its routing key (workspace or
        # user id), so a ShardedProxy drops in transparently.  The count
        # must match the server deployment; 1 is the paper's layout.
        if shards > 1:
            self.sync_service = self.broker.lookup_sharded(
                SYNC_SERVICE_OID, SyncServiceApi, shards
            )
        else:
            self.sync_service = self.broker.lookup(SYNC_SERVICE_OID, SyncServiceApi)
        self.stats = ClientTrafficStats()
        self._metrics_token = REGISTRY.register_source(
            "client_traffic",
            self.stats,
            ClientTrafficStats.scrape,
            device=self.device_id,
        )
        # The chunk data plane: a caller-provided manager is shared (and
        # owned) by the caller; otherwise the client runs its own pool.
        self._owns_transfer = transfer is None
        self.transfer = (
            transfer
            if transfer is not None
            else ChunkTransferManager(pool_size=transfer_pool_size)
        )

        self._lock = threading.RLock()
        self._applied = threading.Condition(self._lock)
        self._applied_versions: Dict[Tuple[str, int], float] = {}
        self._receiver_skeleton = None
        self.on_conflict: Optional[Callable[[str, str], None]] = None
        self.started = False
        # File bundling (Table 2): group this many proposals per
        # commitRequest; 1 reproduces the paper's one-at-a-time setup.
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._pending_proposals: List[ItemMetadata] = []

        if not self.storage.container_exists(self.container):
            self.storage.create_container(self.container)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> List[ItemMetadata]:
        """Startup protocol: getWorkspaces, getChanges, subscribe to pushes.

        Two round trips.  Returns the workspace state that was applied
        locally.
        """
        workspaces = self.sync_service.get_workspaces(self.user_id)
        if not any(w.workspace_id == self.workspace.workspace_id for w in workspaces):
            raise SyncError(
                f"user {self.user_id!r} has no access to workspace "
                f"{self.workspace.workspace_id!r}"
            )
        state = self.sync_service.get_changes(self.workspace.workspace_id)
        for metadata in state:
            self._apply_remote_change(metadata)
        # Register interest in committed updates only after the initial
        # state is applied, as in the paper's startup sequence.
        self._receiver_skeleton = self.broker.bind(
            workspace_oid(self.workspace.workspace_id), _WorkspaceReceiver(self)
        )
        self.watcher.prime()
        self.started = True
        return state

    def stop(self) -> None:
        self.flush()
        self.watcher.stop()
        if self._receiver_skeleton is not None:
            self.broker.unbind(self._receiver_skeleton)
            self._receiver_skeleton = None
        self.broker.close()
        if self._owns_transfer:
            self.transfer.close()
        REGISTRY.unregister_source(self._metrics_token)
        self.started = False

    # -- user-facing operations ----------------------------------------------------

    def put_file(self, path: str, content: bytes) -> ItemMetadata:
        """Write *path* locally and propagate it (ADD or UPDATE)."""
        attrs = None  # nothing is built for a tracer that is off
        if TRACER.enabled:
            attrs = {"path": path, "nbytes": len(content), "device": self.device_id}
        with TRACER.span("client.put_file", layer="client", attrs=attrs):
            self.fs.write(path, content)
            self.watcher.ignore(path)
            return self._index_and_commit(path, content)

    def delete_file(self, path: str) -> ItemMetadata:
        """Delete *path* locally and propagate the removal."""
        attrs = {"path": path, "device": self.device_id} if TRACER.enabled else None
        with TRACER.span("client.delete_file", layer="client", attrs=attrs):
            self.fs.delete(path)
            self.watcher.ignore(path)
            result = self.indexer.index_delete(
                self.workspace.workspace_id, self.device_id, path
            )
            self._send_commit(result)
            return result.proposal

    # -- sync-time instrumentation ------------------------------------------------------

    def wait_for_version(
        self, item_id: str, version: int, timeout: float = 30.0
    ) -> Optional[float]:
        """Block until (item, version) is applied locally; returns apply time."""
        deadline = time.monotonic() + timeout
        key = (item_id, version)
        with self._applied:
            while key not in self._applied_versions:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._applied.wait(remaining)
            return self._applied_versions[key]

    # -- internals: outbound -------------------------------------------------------------

    def _on_watch_event(self, event: FileEvent) -> None:
        if event.kind in (EVENT_ADD, EVENT_UPDATE):
            try:
                content = self.fs.read(event.path)
            except FileNotFoundError:
                return
            self._index_and_commit(event.path, content)
        elif event.kind == EVENT_REMOVE:
            result = self.indexer.index_delete(
                self.workspace.workspace_id, self.device_id, event.path
            )
            self._send_commit(result)

    def _index_and_commit(self, path: str, content: bytes) -> ItemMetadata:
        result = self.indexer.index_change(
            self.workspace.workspace_id, self.device_id, path, content
        )
        self._upload_chunks(result)
        self._send_commit(result)
        return result.proposal

    def _upload_chunks(self, result: IndexResult) -> None:
        """Upload the unique chunks *before* proposing the commit (§4.1).

        Chunks go through the transfer manager's worker pool: parallel
        PUTs with retry, coalesced with any identical in-flight upload.
        """
        if not result.uploads:
            return
        self.transfer.upload_chunks(
            self.storage,
            self.container,
            [(fingerprint.hex(), payload) for fingerprint, payload in result.uploads],
            on_uploaded=self._cache_chunk,
            record=self.stats.record_transfer,
        )

    # The store names a chunk by the hex of its fingerprint, and so do the
    # transfer pool and these two callbacks; the local database keeps bytes.
    def _cache_chunk(self, name: str, payload: bytes) -> None:
        self.local_db.cache_chunk(bytes.fromhex(name), payload)

    def _cached_chunk(self, name: str) -> Optional[bytes]:
        return self.local_db.cached_chunk(bytes.fromhex(name))

    def _send_commit(self, result: IndexResult) -> None:
        proposal = result.proposal
        record = self.local_db.get_by_path(proposal.filename)
        if record is None:
            record = LocalFileRecord(
                item_id=proposal.item_id,
                path=proposal.filename,
                version=0,
            )
        record.pending_version = proposal.version
        self.local_db.upsert(record)
        with self._lock:
            self._pending_proposals.append(proposal)
            ready = len(self._pending_proposals) >= self.batch_size
        if ready:
            self.flush()

    def flush(self) -> None:
        """Send all pending proposals as one bundled commitRequest."""
        with self._lock:
            proposals, self._pending_proposals = self._pending_proposals, []
        if not proposals:
            return
        self.stats.add_commit()
        attrs = None
        if TRACER.enabled:
            attrs = {"device": self.device_id, "proposals": len(proposals)}
        with TRACER.span("client.flush", layer="client", attrs=attrs):
            self.sync_service.commit_request(
                self.workspace.workspace_id,
                self.device_id,
                proposals,
                request_id=uuid.uuid4().hex,
            )

    # -- internals: inbound ---------------------------------------------------------------

    def _on_notification(self, notification: CommitNotification) -> None:
        self.stats.add_notification()
        for result in notification.results:
            try:
                self._handle_result(result)
            except Exception:  # noqa: BLE001 - one bad item must not stop the rest
                logger.exception(
                    "%s failed applying %s", self.device_id, result.metadata.item_id
                )

    def _handle_result(self, result: CommitResult) -> None:
        metadata = result.metadata
        ours = metadata.device_id == self.device_id
        # A redelivered commit loses to the record it stored the first time
        # (current == metadata): its writer takes that as the confirmation,
        # and every other device ignores it, as it does any lost proposal.
        if result.confirmed or (ours and result.current == metadata):
            if ours:
                self._confirm_own_commit(metadata)
            else:
                self._apply_remote_change(metadata)
            self._mark_applied(metadata.item_id, metadata.version)
        elif ours:
            self.stats.add_conflict()
            self._resolve_conflict(result)

    def _confirm_own_commit(self, metadata: ItemMetadata) -> None:
        with self._lock:
            record = self.local_db.get(metadata.item_id)
            if record is None:
                return
            record.version = metadata.version
            if record.pending_version == metadata.version:
                record.pending_version = None
            if metadata.status == STATUS_DELETED:
                self.local_db.remove(metadata.item_id)
            else:
                self.local_db.upsert(record)

    def _apply_remote_change(self, metadata: ItemMetadata) -> None:
        """Materialize a change committed elsewhere onto the local fs."""
        if metadata.status == STATUS_DELETED:
            with self._lock:
                self.fs.delete(metadata.filename)
                self.watcher.ignore(metadata.filename)
                self.local_db.remove(metadata.item_id)
            return
        content = self._fetch_content(metadata)
        with self._lock:
            self.fs.write(metadata.filename, content)
            self.watcher.ignore(metadata.filename)
            self.local_db.upsert(
                LocalFileRecord(
                    item_id=metadata.item_id,
                    path=metadata.filename,
                    version=metadata.version,
                )
            )

    def _fetch_content(self, metadata: ItemMetadata) -> bytes:
        """Download missing chunks, verify integrity, reassemble the file.

        Every downloaded chunk is re-fingerprinted after decompression;
        a mismatch (bit rot, a corrupted replica, a tampered store) raises
        :class:`~repro.errors.SyncError` instead of silently writing bad
        data into the user's workspace.
        """
        attrs = None
        if TRACER.enabled:
            attrs = {
                "device": self.device_id,
                "path": metadata.filename,
                "chunks": len(metadata.chunks),
            }
        with TRACER.span("client.fetch_content", layer="client", attrs=attrs):
            return self._fetch_content_inner(metadata)

    def _fetch_content_inner(self, metadata: ItemMetadata) -> bytes:
        def decode(name: str, payload: bytes) -> bytes:
            plain = self.indexer.compressor.decompress(payload)
            if sha1_fingerprint(plain).hex() != name:
                raise SyncError(
                    f"integrity check failed for chunk {name} of {metadata.filename!r}"
                )
            return plain

        # Parallel fetch with ordered reassembly: results come back in
        # metadata.chunks order no matter which worker finishes first, and
        # a chunk is cached (and charged) only after decode accepted it.
        pieces = self.transfer.fetch_chunks(
            self.storage,
            self.container,
            [fingerprint.hex() for fingerprint in metadata.chunks],
            lookup=self._cached_chunk,
            decode=decode,
            on_fetched=self._cache_chunk,
            record=self.stats.record_transfer,
        )
        return b"".join(pieces)

    def _resolve_conflict(self, result: CommitResult) -> None:
        """Dropbox-style resolution (§4.2.1): keep a conflicted copy.

        The losing local content is renamed to a conflicted copy (and
        proposed as a brand-new item), then the winning server version is
        materialized under the original name.
        """
        metadata = result.metadata
        path = metadata.filename
        conflicted_path = conflicted_copy_name(path, self.device_id)
        try:
            local_content = self.fs.read(path)
        except FileNotFoundError:
            local_content = None

        if result.current is not None:
            self._apply_remote_change(result.current)
        if self.on_conflict is not None:
            self.on_conflict(path, conflicted_path)
        if local_content is not None and metadata.status != STATUS_DELETED:
            self.put_file(conflicted_path, local_content)

    def _mark_applied(self, item_id: str, version: int) -> None:
        with self._applied:
            self._applied_versions[(item_id, version)] = time.time()
            self._applied.notify_all()


def conflicted_copy_name(path: str, device_id: str) -> str:
    """'report.txt' -> 'report (conflicted copy dev-x).txt'."""
    stem, ext = os.path.splitext(path)
    return f"{stem} (conflicted copy {device_id}){ext}"
