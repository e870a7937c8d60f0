"""Client-side routing over a partitioned oid (the sharded commit path).

The paper's SyncService pool consumes *one* shared request queue — the
right design while the single metadata server is the bottleneck, but
once the metadata plane is sharded
(:class:`~repro.metadata.sharded.ShardedMetadataBackend`) one queue
re-serializes what the back-end just parallelized.  A
:class:`ShardedProxy` completes the partition end to end: the base oid
becomes N real oids (``sync.shard.0`` … ``sync.shard.N-1``, see
:func:`~repro.objectmq.naming.shard_oid`), each with its own request
queue and instance pool, and every call routes to exactly one of them by
consistent-hashing its first positional argument — the workspace-scoped
routing key that every ``SyncServiceApi`` method already leads with.

Clients and servers need only agree on the shard count: the hash ring is
deterministic across processes, so there is still no registry and no
server list, exactly as in the unsharded design.  @MultiMethod calls
broadcast to every shard's ``.multi`` exchange and aggregate, preserving
fanout semantics for pool-wide operations.
"""

from __future__ import annotations

from typing import Any, List, Optional, Type

from repro.objectmq.annotations import CallSpec, interface_specs
from repro.objectmq.naming import shard_oid
from repro.routing.shard import ShardRouter


class ShardedProxy:
    """Dynamic stub routing each call to one shard of a partitioned oid.

    Args:
        broker: The connected :class:`~repro.objectmq.broker.Broker`.
        oid: Base object identifier (e.g. ``"sync"``).
        interface: The @remote_interface class, same as ``lookup``.
        num_shards: How many partitions ``oid`` is split into.
        router: Optional pre-built router (must match *num_shards*).
        route_arg: Index of the positional argument used as routing key.
    """

    def __init__(
        self,
        broker,
        oid: str,
        interface: Type,
        num_shards: int,
        router: Optional[ShardRouter] = None,
        route_arg: int = 0,
    ):
        if router is not None and router.num_shards != num_shards:
            raise ValueError(
                f"router covers {router.num_shards} shards, expected {num_shards}"
            )
        specs = interface_specs(interface)
        self._oid = oid
        self._interface_name = interface.__name__
        self._route_arg = route_arg
        self.router = router or ShardRouter(num_shards)
        self._proxies = [
            broker.lookup(shard_oid(oid, shard), interface)
            for shard in range(num_shards)
        ]
        for method_name, spec in specs.items():
            setattr(self, method_name, self._make_method(method_name, spec))

    def __repr__(self) -> str:
        return (
            f"<ShardedProxy {self._interface_name} -> {self._oid!r} "
            f"x{len(self._proxies)}>"
        )

    def shard_for(self, key: Any) -> int:
        """Shard index that calls keyed by *key* are routed to."""
        return self.router.shard_for(str(key))

    # -- stub construction -------------------------------------------------------

    def _target(self, method_name: str, args: tuple):
        if len(args) <= self._route_arg:
            raise TypeError(
                f"{self._interface_name}.{method_name} needs a positional "
                f"routing key at index {self._route_arg}"
            )
        return self._proxies[self.shard_for(args[self._route_arg])]

    def _make_method(self, method_name: str, spec: CallSpec):
        if spec.multi:
            # Pool-wide fanout: hit every shard's .multi exchange.
            if spec.kind == "sync":
                def call(*args: Any, **kwargs: Any) -> List[Any]:
                    results: List[Any] = []
                    for proxy in self._proxies:
                        results.extend(getattr(proxy, method_name)(*args, **kwargs))
                    return results
            else:
                def call(*args: Any, **kwargs: Any) -> int:
                    return sum(
                        getattr(proxy, method_name)(*args, **kwargs)
                        for proxy in self._proxies
                    )
        else:
            def call(*args: Any, **kwargs: Any) -> Any:
                proxy = self._target(method_name, args)
                return getattr(proxy, method_name)(*args, **kwargs)

        call.__name__ = method_name
        call.__qualname__ = f"{self._interface_name}.{method_name}"
        return call
