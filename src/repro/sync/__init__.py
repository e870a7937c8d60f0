"""StackSync synchronization protocol: models, interfaces, SyncService."""

from repro.sync.auth import (
    AuthService,
    AuthToken,
    sync_auth_interceptor,
)
from repro.sync.interface import (
    RemoteWorkspaceApi,
    SYNC_SERVICE_OID,
    SYNC_SERVICE_PREFETCH,
    SyncServiceApi,
    workspace_oid,
)
from repro.sync.models import (
    STATUS_CHANGED,
    STATUS_DELETED,
    STATUS_NEW,
    CommitNotification,
    CommitResult,
    ItemMetadata,
    Workspace,
)
from repro.sync.service import SyncService, sync_service_factory

__all__ = [
    "AuthService",
    "AuthToken",
    "STATUS_CHANGED",
    "STATUS_DELETED",
    "STATUS_NEW",
    "SYNC_SERVICE_OID",
    "SYNC_SERVICE_PREFETCH",
    "CommitNotification",
    "CommitResult",
    "ItemMetadata",
    "RemoteWorkspaceApi",
    "SyncService",
    "SyncServiceApi",
    "Workspace",
    "sync_auth_interceptor",
    "sync_service_factory",
    "workspace_oid",
]
