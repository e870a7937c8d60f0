"""The SyncService: server-side commit processing (§4.2, Algorithm 1).

The service is *stateless* — every piece of durable state lives in the
Metadata back-end — so any number of instances can consume the shared
request queue, which is what makes the pool elastic.  Consistency comes
from the back-end's ACID version check: the first commitRequest processed
for a given version wins, the second aborts and is reported back as a
conflict with the winning metadata piggybacked (first-writer-wins, no
rollbacks).
"""

from __future__ import annotations

import itertools
import logging
import sys
import threading
import time
import uuid
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import UnknownWorkspace
from repro.objectmq.broker import Broker
from repro.telemetry.registry import REGISTRY
from repro.telemetry.trace import TRACER

if TYPE_CHECKING:  # avoid a circular import: metadata.base imports sync.models
    from repro.metadata.base import MetadataBackend
from repro.objectmq.introspection import HasObjectInfo
from repro.sync.interface import RemoteWorkspaceApi, workspace_oid
from repro.sync.models import (
    CommitNotification,
    CommitResult,
    ItemMetadata,
    Workspace,
)

logger = logging.getLogger(__name__)

#: Notification proxies an instance keeps alive; least-recently-used entries are
#: evicted beyond it.  An instance commits for every workspace hashed to its
#: queue, so the cache must not grow with the workspace population.
WORKSPACE_PROXY_CACHE_SIZE = 1024


class SyncService(HasObjectInfo):
    """One SyncService instance (bind many of these under one oid).

    Args:
        metadata: The Metadata back-end (shared by all instances).
        broker: ObjectMQ broker used to push ``notifyCommit`` fanouts.
        service_delay: Optional callable returning seconds of artificial
            processing time per commit — used by elasticity experiments to
            impose the paper's measured 50 ms mean service time.
    """

    #: Monotonic source for the registry ``instance`` label.  ``id(self)``
    #: is NOT a stable identity: CPython reuses addresses after garbage
    #: collection, so a respawned instance could take the label of a dead
    #: sibling that had not been swept yet.
    _instance_seq = itertools.count(1)

    def __init__(
        self,
        metadata: "MetadataBackend",
        broker: Broker,
        service_delay: Optional[Callable[[], float]] = None,
    ):
        self.metadata = metadata
        self.broker = broker
        # Private: a skeleton would run a public callable a peer names.
        self._service_delay = service_delay
        self._lock = threading.Lock()
        self._workspace_proxies: "OrderedDict[str, object]" = OrderedDict()
        self._proxy_cache_hits = 0
        self._proxy_cache_misses = 0
        self._proxy_cache_evictions = 0
        self.commit_count = 0
        self.conflict_count = 0
        self.instance = str(next(SyncService._instance_seq))
        REGISTRY.register_source(
            "sync", self, SyncService._scrape, instance=self.instance
        )

    def _scrape(self) -> Dict[str, float]:
        """Registry source: commit counts and the notification-proxy cache."""
        with self._lock:
            return {
                "up": 1.0,
                "commits": float(self.commit_count),
                "conflicts": float(self.conflict_count),
                "workspace_proxy_cache_size": float(len(self._workspace_proxies)),
                "workspace_proxy_cache_capacity": float(WORKSPACE_PROXY_CACHE_SIZE),
                "workspace_proxy_cache_hits": float(self._proxy_cache_hits),
                "workspace_proxy_cache_misses": float(self._proxy_cache_misses),
                "workspace_proxy_cache_evictions": float(self._proxy_cache_evictions),
            }

    # -- SyncServiceApi implementation --------------------------------------------

    def get_workspaces(self, user_id: str) -> List[Workspace]:
        return self.metadata.workspaces_for(user_id)

    def get_changes(self, workspace_id: str) -> List[ItemMetadata]:
        return self.metadata.get_workspace_state(workspace_id)

    def commit_request(
        self,
        workspace_id: str,
        device_id: str,
        objects_changed: List[ItemMetadata],
        request_id: str = "",
    ) -> None:
        """Algorithm 1 of the paper, one list of proposed changes."""
        # The decoded items hold these ids interned; the notification must hold
        # the same objects, or pickle's memo stops shortening its repeats.
        workspace_id, device_id = sys.intern(workspace_id), sys.intern(device_id)
        if not TRACER.enabled:  # no span is asked for, not even a no-op one
            return self._commit(workspace_id, device_id, objects_changed, request_id)
        attrs = {"workspace": workspace_id, "proposals": len(objects_changed)}
        with TRACER.span("sync.commit_request", layer="sync", attrs=attrs):
            self._commit(workspace_id, device_id, objects_changed, request_id)

    def _commit(self, workspace_id, device_id, objects_changed, request_id) -> None:
        if self._service_delay is not None:
            delay = self._service_delay()
            if delay > 0:
                time.sleep(delay)
        # The engines refuse an unknown workspace before storing anything: ask
        # only if no item vouches for this one (empty bundle, filed elsewhere).
        vouched = {item.workspace_id for item in objects_changed} == {workspace_id}
        if not vouched and not self.metadata.workspace_exists(workspace_id):
            raise UnknownWorkspace(f"workspace {workspace_id!r} is not registered")

        # The whole bundle commits in one back-end transaction; conflicts
        # stay per item (first-writer-wins, winner piggybacked).
        outcomes = self.metadata.store_versions_bulk(objects_changed)
        conflicts = 0
        for new_object, (confirmed, current) in zip(objects_changed, outcomes):
            # A redelivered commit loses to the very record it stored the
            # first time: that is no conflict, and its writer reads the
            # result as a confirmation (StackSyncClient._handle_result).
            if not confirmed and current != new_object:
                conflicts += 1
                logger.debug("conflict on %s: proposed v%d, current v%s", new_object.item_id,
                             new_object.version, getattr(current, "version", None))

        with self._lock:
            self.commit_count += 1
            self.conflict_count += conflicts

        if not self.broker.multicast_has_listeners(workspace_oid(workspace_id)):
            # No device is bound to the workspace fanout, so the multicast would
            # be a no-op: skip its proxy, the results and the notification (the
            # probe is a lock-free exchange lookup).
            return
        results = tuple([
            CommitResult(metadata=new_object, confirmed=confirmed, current=current)
            for new_object, (confirmed, current) in zip(objects_changed, outcomes)
        ])
        workspace_proxy = self._workspace(workspace_id)
        notification = CommitNotification(
            workspace_id=workspace_id,
            source_device=device_id,
            results=results,
            committed_at=time.time(),
            request_id=request_id or uuid.uuid4().hex,
        )
        if TRACER.enabled:
            with TRACER.span("sync.notify_commit", layer="sync"):
                workspace_proxy.notify_commit(notification)
        else:
            workspace_proxy.notify_commit(notification)

    def create_workspace(
        self, workspace_id: str, owner: str, name: str = ""
    ) -> Workspace:
        """Register a new workspace; idempotent for the same id/owner."""
        workspace = Workspace(workspace_id=workspace_id, owner=owner, name=name)
        self.metadata.create_workspace(workspace)
        return workspace

    def share_workspace(self, workspace_id: str, user_id: str) -> bool:
        """The sharing service: grant *user_id* access to the workspace.

        After the grant the user's devices can ``get_changes`` on the
        workspace and bind to its notification fanout like any owner
        device.
        """
        self.metadata.grant_access(workspace_id, user_id)
        return True

    # -- internals -------------------------------------------------------------------

    def _workspace(self, workspace_id: str):
        """LRU-cached proxy for the workspace's notification fanout."""
        with self._lock:
            proxy = self._workspace_proxies.get(workspace_id)
            if proxy is not None:
                self._proxy_cache_hits += 1
                self._workspace_proxies.move_to_end(workspace_id)
                return proxy
            self._proxy_cache_misses += 1
        # Lookup outside the lock: proxy construction talks to the MOM
        # (declares the fanout exchange) and must not serialize commits.
        proxy = self.broker.lookup(workspace_oid(workspace_id), RemoteWorkspaceApi)
        with self._lock:
            existing = self._workspace_proxies.get(workspace_id)
            if existing is not None:
                return existing
            self._workspace_proxies[workspace_id] = proxy
            while len(self._workspace_proxies) > WORKSPACE_PROXY_CACHE_SIZE:
                self._workspace_proxies.popitem(last=False)
                self._proxy_cache_evictions += 1
            return proxy


def sync_service_factory(
    metadata: "MetadataBackend",
    broker: Broker,
    service_delay: Optional[Callable[[], float]] = None,
) -> Callable[[], SyncService]:
    """Factory suitable for RemoteBroker.register_factory (elastic spawn)."""

    def build() -> SyncService:
        return SyncService(metadata, broker, service_delay=service_delay)

    return build
