"""Build the real StackSync stack in this process, shipped defaults only.

``MessageBroker`` -> ``objectmq.Broker`` -> ``SyncService`` bound with
``SYNC_SERVICE_PREFETCH`` -> metadata engine -> ``SwiftLikeStore``: pickle
codec, no publish buffer, gzip, ``FixedChunker``, zero-latency store.  With a
:class:`~spans.Recorder` the same objects are built behind the wrappers of
``tracing.py``.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.client import StackSyncClient
from repro.client.chunker import FixedChunker
from repro.client.compression import GzipCompressor
from repro.client.transfer import ChunkTransferManager
from repro.metadata import MemoryMetadataBackend, SqliteMetadataBackend
from repro.mom import MessageBroker
from repro.objectmq import Broker
from repro.storage import SwiftLikeStore
from repro.sync import SYNC_SERVICE_OID, SyncService
from repro.sync.interface import SYNC_SERVICE_PREFETCH

import tracing
from spans import Recorder

#: Deployments built (and torn down) per run to take ``setup_s`` from.
SETUP_REPEATS = 21


@dataclass
class Stack:
    """One deployment: broker, metadata engine, object store, SyncService."""

    raw_mom: MessageBroker
    metadata: object
    storage: object
    server: Broker
    service: SyncService
    rec: Optional[Recorder]

    def client_mom(self, owner: str):
        """The MOM handle for one more ObjectMQ broker (device)."""
        if self.rec is None:
            return self.raw_mom
        return tracing.TracedMom(self.raw_mom, self.rec, owner)

    def broker(self, client_id: str) -> Broker:
        """A client-side ObjectMQ broker, traced when the stack is."""
        broker = Broker(self.client_mom(""), environment={"client_id": client_id})
        if self.rec is not None:
            tracing.trace_broker(broker, self.rec)
        return broker

    def device(self, user_id: str, workspace, device_id: str) -> StackSyncClient:
        """A ``StackSyncClient`` with default chunker, compressor and pool."""
        if self.rec is None:
            return StackSyncClient(
                user_id, workspace, self.raw_mom, self.storage, device_id=device_id
            )
        client = StackSyncClient(
            user_id,
            workspace,
            self.client_mom(device_id),
            self.storage,
            device_id=device_id,
            chunker=tracing.TracedChunker(FixedChunker(), self.rec),
            compressor=tracing.TracedCompressor(GzipCompressor(), self.rec),
            transfer=tracing.TracedTransfer(ChunkTransferManager(), self.rec),
        )
        return tracing.trace_client(client, self.rec)

    def stop_device(self, client: StackSyncClient) -> None:
        client.stop()
        if self.rec is not None:
            # An injected transfer pool is the caller's to close.
            client.transfer.close()

    def close(self) -> None:
        self.server.close()
        self.raw_mom.close()
        self.metadata.close()


def build_stack(engine: str, rec: Optional[Recorder] = None) -> Stack:
    """Construct and wire one stack; *engine* is ``memory`` or ``sqlite``."""
    raw_mom = MessageBroker()
    if engine == "sqlite":
        # In-memory database: no fsync.  Disk is not measured on a sandbox.
        metadata = SqliteMetadataBackend(":memory:")
    else:
        metadata = MemoryMetadataBackend()
    storage = SwiftLikeStore()
    mom = raw_mom
    if rec is not None:
        mom = tracing.TracedMom(raw_mom, rec)
        metadata = tracing.TracedMetadata(metadata, rec)
        storage = tracing.TracedStore(storage, rec)
    server = Broker(mom)
    service = SyncService(metadata, server)
    if rec is not None:
        tracing.trace_broker(server, rec)
        tracing.trace_service(service, rec)
    server.bind(SYNC_SERVICE_OID, service, prefetch=SYNC_SERVICE_PREFETCH)
    return Stack(raw_mom, metadata, storage, server, service, rec)


def timed_setups(build: Callable[[], object], repeats: int = SETUP_REPEATS) -> float:
    """Seconds one set-up takes: the lower quartile of *repeats* of them.

    ``build()`` returns a deployment with a ``close()``; each is closed
    before the next is built.  A set-up is a few milliseconds of thread
    starts, so a burst of interference from the host easily doubles one:
    the lower quartile tracks what the code costs, where the median of a
    burst-hit run tracks the burst.  Runs call this after their measured
    phase, not before it: a process started after idle runs about twice as
    fast for its first seconds, so a set-up timed first would depend on how
    long the machine rested before the run.
    """
    times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        deployment = build()
        times.append(time.perf_counter() - started)
        deployment.close()
    return statistics.quantiles(times, n=4)[0]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
