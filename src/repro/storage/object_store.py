"""Swift-like object storage: proxy node + storage nodes + ring (§5.1).

The StackSync client addresses the Storage back-end with a narrow
container/object API: PUT/GET/DELETE/HEAD of immutable compressed chunks
keyed by fingerprint.  The testbed of the paper was one Swift proxy in
front of 4 storage nodes; :class:`SwiftLikeStore` mirrors that topology —
a proxy that consults the :class:`~repro.routing.HashRing`, writes
all replicas, reads from the primary (falling over to replicas), and
charges every hop to a :class:`~repro.storage.latency.LatencyModel`.

Traffic accounting (``bytes_in`` / ``bytes_out``) is what the Fig 7
overhead experiments measure as *storage traffic*.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ObjectNotFound, StorageError
from repro.routing import HashRing
from repro.storage.latency import LatencyModel, LatencyProfile, ZERO_PROFILE
from repro.telemetry.control import HEALTH
from repro.telemetry.registry import REGISTRY


@dataclass
class StorageNode:
    """One storage device: a flat object namespace with usage counters.

    Nodes are hit concurrently by the client-side transfer pools, so every
    access to the object map happens under a per-node lock; the proxy's
    latency charges stay outside it, which is what lets parallel transfers
    overlap their simulated wire time.
    """

    name: str
    objects: Dict[str, bytes] = field(default_factory=dict)
    failed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def put(self, key: str, data: bytes) -> None:
        if self.failed:
            raise StorageError(f"storage node {self.name} is down")
        with self._lock:
            self.objects[key] = data

    def get(self, key: str) -> bytes:
        if self.failed:
            raise StorageError(f"storage node {self.name} is down")
        with self._lock:
            try:
                return self.objects[key]
            except KeyError:
                raise ObjectNotFound(key) from None

    def delete(self, key: str) -> bool:
        if self.failed:
            raise StorageError(f"storage node {self.name} is down")
        with self._lock:
            return self.objects.pop(key, None) is not None

    def has(self, key: str) -> bool:
        with self._lock:
            return not self.failed and key in self.objects

    def keys(self) -> List[str]:
        """Stable snapshot of the stored keys (safe under concurrent puts)."""
        with self._lock:
            return list(self.objects)

    def size_of(self, key: str) -> Optional[int]:
        if self.failed:
            return None
        with self._lock:
            data = self.objects.get(key)
            return len(data) if data is not None else None

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return sum(len(v) for v in self.objects.values())


class SwiftLikeStore:
    """Proxy-fronted replicated object store.

    Keys are namespaced per container (``container/name``), matching the
    per-user "digital locker" model of the paper: each StackSync user owns
    a container and deduplication never crosses containers.
    """

    def __init__(
        self,
        node_count: int = 4,
        replicas: int = 2,
        latency: Optional[LatencyModel] = None,
    ):
        if node_count < 1:
            raise ValueError("need at least one storage node")
        self.nodes: Dict[str, StorageNode] = {
            f"storage-{i}": StorageNode(f"storage-{i}") for i in range(node_count)
        }
        self.ring = HashRing(list(self.nodes), replicas=replicas)
        self.latency = latency if latency is not None else LatencyModel(
            profile=ZERO_PROFILE, sleep=False
        )
        self._lock = threading.Lock()
        self._containers: Set[str] = set()
        self._put_times: Dict[str, float] = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.put_count = 0
        self.get_count = 0
        REGISTRY.register_source(
            "storage_proxy",
            self,
            SwiftLikeStore.scrape,
            nodes=node_count,
            replicas=replicas,
        )
        HEALTH.register("storage:proxy", self, SwiftLikeStore._health_probe)

    def _health_probe(self) -> Dict[str, object]:
        """Ops-endpoint probe: at least one storage node is reachable."""
        failed = sum(1 for node in self.nodes.values() if node.failed)
        total = len(self.nodes)
        return {"ok": failed < total, "nodes": total, "failed_nodes": failed}

    def scrape(self) -> Dict[str, int]:
        """Registry-source view of the proxy's traffic accounting."""
        with self._lock:
            return {
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "put_count": self.put_count,
                "get_count": self.get_count,
            }

    # -- containers -----------------------------------------------------------------

    def create_container(self, container: str) -> None:
        with self._lock:
            self._containers.add(container)

    def container_exists(self, container: str) -> bool:
        with self._lock:
            return container in self._containers

    def list_container(self, container: str) -> List[str]:
        self._require_container(container)
        prefix = container + "/"
        names: Set[str] = set()
        for node in self.nodes.values():
            for key in node.keys():
                if key.startswith(prefix):
                    names.add(key[len(prefix):])
        return sorted(names)

    # -- objects ---------------------------------------------------------------------

    def put_object(self, container: str, name: str, data: bytes) -> None:
        """Store *data* on every replica of its partition."""
        self._require_container(container)
        key = f"{container}/{name}"
        self.latency.charge(len(data))
        devices = self.ring.devices_for(key)
        stored = 0
        for device in devices:
            node = self.nodes[device]
            if node.failed:
                continue
            node.put(key, data)
            stored += 1
        if stored == 0:
            raise StorageError(f"no replica available for {key!r}")
        with self._lock:
            self.bytes_in += len(data)
            self.put_count += 1
            self._put_times[key] = time.time()

    def get_object(self, container: str, name: str) -> bytes:
        """Read from the primary replica, failing over along the ring."""
        self._require_container(container)
        key = f"{container}/{name}"
        last_error: Optional[Exception] = None
        for device in self.ring.devices_for(key):
            node = self.nodes[device]
            try:
                data = node.get(key)
            except ObjectNotFound as exc:
                last_error = exc
                continue
            except StorageError as exc:
                last_error = exc
                continue
            self.latency.charge(len(data))
            with self._lock:
                self.bytes_out += len(data)
                self.get_count += 1
            return data
        if isinstance(last_error, ObjectNotFound):
            raise last_error
        raise ObjectNotFound(key)

    def head_object(self, container: str, name: str) -> bool:
        """Existence probe (used by dedup before uploading a chunk)."""
        self._require_container(container)
        key = f"{container}/{name}"
        self.latency.charge(0)
        return any(self.nodes[d].has(key) for d in self.ring.devices_for(key))

    def put_time(self, container: str, name: str) -> Optional[float]:
        """When the object was last PUT (None if never via this proxy)."""
        with self._lock:
            return self._put_times.get(f"{container}/{name}")

    def object_size(self, container: str, name: str) -> Optional[int]:
        """Size of an object in bytes, without traffic accounting.

        Administrative helper (used by the garbage collector); returns
        None when no live replica holds the object.
        """
        self._require_container(container)
        key = f"{container}/{name}"
        for device in self.ring.devices_for(key):
            size = self.nodes[device].size_of(key)
            if size is not None:
                return size
        return None

    def delete_object(self, container: str, name: str) -> bool:
        self._require_container(container)
        key = f"{container}/{name}"
        self.latency.charge(0)
        deleted = False
        for device in self.ring.devices_for(key):
            node = self.nodes[device]
            if not node.failed and node.delete(key):
                deleted = True
        return deleted

    # -- operations & failures ----------------------------------------------------------

    def fail_node(self, name: str) -> None:
        self.nodes[name].failed = True

    def recover_node(self, name: str) -> None:
        self.nodes[name].failed = False

    def usage(self) -> Dict[str, int]:
        return {name: node.used_bytes for name, node in self.nodes.items()}

    def reset_traffic_counters(self) -> None:
        with self._lock:
            self.bytes_in = 0
            self.bytes_out = 0
            self.put_count = 0
            self.get_count = 0

    def _require_container(self, container: str) -> None:
        if not self.container_exists(container):
            raise StorageError(f"container {container!r} does not exist")
