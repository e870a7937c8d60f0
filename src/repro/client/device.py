"""Multi-workspace device: the full desktop-client startup flow (§4.2.1).

"Clients can request the list of workspaces they have access to with the
getWorkspaces operation" — a device may sync several workspaces (its own
plus shared ones), each mapped to its own folder.  :class:`StackSyncDevice`
performs the discovery step and manages one
:class:`~repro.client.sync_client.StackSyncClient` per accessible
workspace, sharing the device identity.

Workspaces granted *after* start-up are picked up by :meth:`refresh`.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.client.fs import Filesystem, VirtualFilesystem
from repro.client.sync_client import StackSyncClient
from repro.objectmq.broker import Broker
from repro.storage.object_store import SwiftLikeStore
from repro.sync.interface import SYNC_SERVICE_OID, SyncServiceApi
from repro.sync.models import Workspace


class StackSyncDevice:
    """One physical device syncing every workspace its user can access."""

    def __init__(
        self,
        user_id: str,
        device_id: str,
        mom,
        storage: SwiftLikeStore,
        fs_factory: Optional[Callable[[Workspace], Filesystem]] = None,
        client_options: Optional[dict] = None,
        call_context: Optional[dict] = None,
    ):
        """
        Args:
            fs_factory: Builds the local filesystem for each workspace
                (e.g. one real directory per workspace).  Defaults to a
                fresh in-memory filesystem per workspace.
            client_options: Extra keyword arguments forwarded to every
                underlying StackSyncClient (chunker, compressor, ...).
            call_context: ObjectMQ context headers (e.g. ``auth_token``)
                attached to every RPC this device issues — both the
                discovery connection and every workspace client.
        """
        self.user_id = user_id
        self.device_id = device_id
        self.mom = mom
        self.storage = storage
        self.fs_factory = fs_factory or (lambda _ws: VirtualFilesystem())
        self.client_options = dict(client_options or {})
        self.call_context = dict(call_context or {})
        self._lock = threading.Lock()
        self._clients: Dict[str, StackSyncClient] = {}
        # One control connection for discovery; each workspace client has
        # its own broker (its own response queue), as per Fig 5.
        self._broker = Broker(mom, environment={"client_id": f"{device_id}.ctl"})
        self._broker.call_context.update(self.call_context)
        self._proxy = self._broker.lookup(SYNC_SERVICE_OID, SyncServiceApi)
        self.started = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> List[str]:
        """Discover workspaces and start syncing each; returns their ids."""
        self.started = True
        return self.refresh()

    def refresh(self) -> List[str]:
        """Re-run discovery, attaching newly granted workspaces."""
        if not self.started:
            raise RuntimeError("device not started")
        workspaces = self._proxy.get_workspaces(self.user_id)
        added = []
        with self._lock:
            for workspace in workspaces:
                if workspace.workspace_id in self._clients:
                    continue
                client = StackSyncClient(
                    self.user_id,
                    workspace,
                    self.mom,
                    self.storage,
                    device_id=f"{self.device_id}.{workspace.workspace_id}",
                    fs=self.fs_factory(workspace),
                    **self.client_options,
                )
                client.broker.call_context.update(self.call_context)
                client.start()
                self._clients[workspace.workspace_id] = client
                added.append(workspace.workspace_id)
        return sorted(self._clients)

    def stop(self) -> None:
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.stop()
        self._broker.close()
        self.started = False

    # -- access --------------------------------------------------------------------

    def workspace_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._clients)

    def client_for(self, workspace_id: str) -> StackSyncClient:
        with self._lock:
            try:
                return self._clients[workspace_id]
            except KeyError:
                raise KeyError(
                    f"device {self.device_id!r} does not sync {workspace_id!r}"
                ) from None

    def fs_for(self, workspace_id: str) -> Filesystem:
        return self.client_for(workspace_id).fs
