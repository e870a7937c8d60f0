"""Swift-like object storage back-end (ring, nodes, proxy, latency, GC)."""

from repro.storage.latency import (
    LAN_PROFILE,
    LatencyModel,
    LatencyProfile,
    ZERO_PROFILE,
)
from repro.storage.gc import ChunkGarbageCollector, GcReport
from repro.routing import HashRing
from repro.storage.object_store import StorageNode, SwiftLikeStore

__all__ = [
    "ChunkGarbageCollector",
    "GcReport",
    "LAN_PROFILE",
    "ZERO_PROFILE",
    "HashRing",
    "LatencyModel",
    "LatencyProfile",
    "StorageNode",
    "SwiftLikeStore",
]
