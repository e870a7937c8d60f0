"""Consistent-hash ring with virtual partitions (the Swift ring).

OpenStack Swift places objects on storage nodes using a partitioned
consistent-hash ring with replicas.  We reproduce the essentials: a ring
of 2^power partitions, each mapped to *replicas* distinct devices, with
stable assignment under device addition/removal (only ~1/N of partitions
move).  The same ring routes metadata shards (see
:class:`repro.routing.shard.ShardRouter`), so object-store placement and
metadata sharding share one tested implementation.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence


def _hash_to_int(value: str) -> int:
    return int.from_bytes(hashlib.md5(value.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A Swift-style partition ring with virtual nodes."""

    def __init__(self, devices: Sequence[str], replicas: int = 3, power: int = 8):
        """
        Args:
            devices: Names of the storage devices (nodes).
            replicas: How many distinct devices store each partition.
            power: The ring has 2**power partitions.
        """
        if not devices:
            raise ValueError("ring needs at least one device")
        self.partition_count = 2**power
        self.replicas = min(replicas, len(devices))
        self.devices: List[str] = list(dict.fromkeys(devices))
        # partition -> replica devices, worked out on the partition's first
        # lookup: a ring nobody routes through (the object store of a
        # metadata-only deployment) costs no hashing at all.
        self._assignments: Dict[int, List[str]] = {}

    def _replicas_of(self, partition: int) -> List[str]:
        """The partition's replica devices, by rendezvous hashing (memoised).

        Rendezvous (highest-random-weight) hashing gives the minimal-
        movement property without maintaining an explicit virtual-node
        ring, and is deterministic across processes.
        """
        # A membership change rebinds the memo after it changes the device
        # list, so an entry computed from the old list lands in the old memo.
        memo = self._assignments
        assigned = memo.get(partition)
        if assigned is None:
            scored = sorted(
                self.devices,
                key=lambda dev: _hash_to_int(f"{partition}:{dev}"),
                reverse=True,
            )
            assigned = memo[partition] = scored[: self.replicas]
        return assigned

    def partition_for(self, key: str) -> int:
        return _hash_to_int(key) % self.partition_count

    def devices_for(self, key: str) -> List[str]:
        """The replica devices responsible for *key* (primary first)."""
        return list(self._replicas_of(self.partition_for(key)))

    def primary_for(self, key: str) -> str:
        return self._replicas_of(self.partition_for(key))[0]

    def add_device(self, device: str) -> None:
        if device in self.devices:
            return
        self.devices.append(device)
        self.replicas = min(max(self.replicas, 1), len(self.devices))
        self._assignments = {}

    def remove_device(self, device: str) -> None:
        if device not in self.devices:
            return
        if len(self.devices) == 1:
            raise ValueError("cannot remove the last device")
        self.devices.remove(device)
        self.replicas = min(self.replicas, len(self.devices))
        self._assignments = {}

    def load_distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Count of primary assignments per device over *keys*."""
        counts: Dict[str, int] = {dev: 0 for dev in self.devices}
        for key in keys:
            counts[self.primary_for(key)] += 1
        return counts
