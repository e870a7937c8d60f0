"""Remote interfaces of the StackSync protocol — the paper's Fig 6.

The SyncService interface exposes the three operations of the paper
(``getWorkspaces``, ``getChanges``, ``commitRequest``) with the same
invocation semantics and the same retry/timeout configuration, plus the
sharing pair (``create_workspace``, ``share_workspace``) that
``examples/personal_cloud_portal.py`` drives; the RemoteWorkspace
interface carries the one-to-many ``notifyCommit`` push.
"""

from __future__ import annotations

from typing import List

from repro.objectmq.annotations import (
    Remote,
    async_method,
    multi_method,
    remote_interface,
    sync_method,
)

#: Well-known oid the SyncService pool binds under.
SYNC_SERVICE_OID = "syncservice"

#: Prefetch window SyncService deployments bind with.  The service is
#: stateless and commit handling is short, so the MOM may hand each
#: instance up to this many unacked requests.  The dispatcher hands them
#: over one at a time; a woken consumer drains whatever waits in its
#: mailbox into one handler call settled with one ``ack_many``, so a
#: backlog (a burst of casts, a requeued window) is worked off
#: in runs instead of ack-at-a-time round trips.
#: The cost is the standard AMQP trade — a wider redelivery window on
#: crash — which at-least-once semantics absorb; elasticity experiments
#: that depend on strict first-idle-instance balancing still pass
#: ``prefetch=1`` explicitly.
SYNC_SERVICE_PREFETCH = 64


def workspace_oid(workspace_id: str) -> str:
    """The oid whose fanout carries a workspace's commit notifications."""
    return f"workspace.{workspace_id}"


@remote_interface
class SyncServiceApi(Remote):
    """Client-to-server operations (Fig 6, upper interface)."""

    @sync_method(retry=5, timeout=1.5)
    def get_workspaces(self, user_id: str) -> List:
        """Workspaces the user may access; called once at startup."""
        raise NotImplementedError

    @sync_method(retry=5, timeout=1.5)
    def get_changes(self, workspace_id: str) -> List:
        """Full current state of a workspace; costly, startup-only."""
        raise NotImplementedError

    @async_method
    def commit_request(
        self,
        workspace_id: str,
        device_id: str,
        objects_changed: List,
        request_id: str = "",
    ) -> None:
        """Propose a list of metadata changes (Algorithm 1); fire-and-forget."""
        raise NotImplementedError

    @sync_method(retry=5, timeout=1.5)
    def create_workspace(self, workspace_id: str, owner: str, name: str = ""):
        """Register a new workspace owned by *owner*; returns it."""
        raise NotImplementedError

    @sync_method(retry=5, timeout=1.5)
    def share_workspace(self, workspace_id: str, user_id: str) -> bool:
        """Grant *user_id* access to the workspace (the sharing service)."""
        raise NotImplementedError


@remote_interface
class RemoteWorkspaceApi(Remote):
    """Server-to-clients push channel (Fig 6, lower interface)."""

    @multi_method
    @async_method
    def notify_commit(self, notification) -> None:
        """Pushed to every device bound to the workspace after a commit."""
        raise NotImplementedError
