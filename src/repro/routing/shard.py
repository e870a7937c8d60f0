"""Workspace-to-shard routing for the partitioned metadata plane.

A :class:`ShardRouter` deterministically maps a routing key (normally a
``workspace_id``) onto one of N shards through the shared
:class:`~repro.routing.ring.HashRing`.  Every layer that must agree on
the mapping — clients publishing commits, the
:class:`~repro.metadata.sharded.ShardedMetadataBackend` choosing an
engine, the per-shard Supervisors — holds a router with the same shard
count and therefore computes the same shard for the same key, with no
coordination and no registry lookups (the ring hash is deterministic
across processes).

Keys hash uniformly over the shards.  A router's shard count is fixed
at construction, so a key's shard never changes while the router lives.
"""

from __future__ import annotations

from typing import Dict

from repro.routing.ring import HashRing


class ShardRouter:
    """Consistent-hash mapping of routing keys onto ``num_shards`` shards."""

    def __init__(self, num_shards: int, power: int = 8):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = num_shards
        self._ring = HashRing(
            [self.shard_name(k) for k in range(num_shards)],
            replicas=1,
            power=power,
        )
        # key -> shard memo.  The router's ring is fixed at construction
        # (shard count never changes on a live router), so entries never
        # go stale; the cap only bounds memory on adversarial key sets.
        # Plain dict ops are atomic under CPython — no lock, a racing
        # recompute just stores the same value twice.
        self._memo: Dict[str, int] = {}
        self._memo_cap = 65536

    @staticmethod
    def shard_name(shard: int) -> str:
        return f"shard.{shard}"

    def shard_for(self, key: str) -> int:
        """The shard index in ``[0, num_shards)`` owning *key*."""
        key = str(key)
        shard = self._memo.get(key)
        if shard is None:
            name = self._ring.primary_for(key)
            shard = int(name.rsplit(".", 1)[1])
            if len(self._memo) >= self._memo_cap:
                self._memo.clear()
            self._memo[key] = shard
        return shard

    def __repr__(self) -> str:
        return f"<ShardRouter shards={self.num_shards}>"
