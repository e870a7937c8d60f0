"""Shared consistent-hash routing primitives.

One tested ring serves both placement problems in the stack:

* **chunk placement** — :class:`~repro.storage.object_store.SwiftLikeStore`
  maps chunk fingerprints onto storage devices (the Swift ring role);
* **metadata sharding** — :class:`ShardRouter` maps ``workspace_id`` onto
  one of N metadata shards, the partitioned commit path that lets the
  SyncService pool scale past a single back-end.
"""

from repro.routing.ring import HashRing
from repro.routing.shard import ShardRouter

__all__ = ["HashRing", "ShardRouter"]
