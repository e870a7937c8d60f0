"""Queue/exchange naming conventions shared by proxies and skeletons."""

from __future__ import annotations

from typing import Optional, Tuple

#: Suffix of the fanout exchange carrying @MultiMethod calls for an oid.
MULTI_EXCHANGE_SUFFIX = ".multi"

#: Infix separating a base oid from its shard index in a partitioned
#: deployment (``sync.shard.3`` is shard 3 of the ``sync`` pool).
SHARD_INFIX = ".shard."


def multi_exchange_name(oid: str) -> str:
    """Name of the fanout exchange broadcasting to all instances of *oid*."""
    return oid + MULTI_EXCHANGE_SUFFIX


def response_queue_name(client_id: str) -> str:
    """Name of a connected Broker's private reply queue."""
    return f"response.{client_id}"


def multicast_queue_name(client_id: str) -> str:
    """Name of a serving Broker's private multicast queue: one per Broker,
    bound to the ``.multi`` exchange of every oid it hosts an instance of."""
    return f"multi.{client_id}"


def shard_oid(oid: str, shard: int) -> str:
    """The partitioned oid serving shard *shard* of the *oid* pool.

    Every shard is a full ObjectMQ oid of its own — request queue,
    ``.multi`` exchange, instance pool — so load balancing, multicast
    and elastic scaling all work per shard with no new machinery.
    """
    if shard < 0:
        raise ValueError(f"negative shard {shard}")
    return f"{oid}{SHARD_INFIX}{shard}"


def parse_shard_oid(name: str) -> Tuple[str, Optional[int]]:
    """Split a (possibly) partitioned oid into ``(base_oid, shard)``.

    Returns ``(name, None)`` for unpartitioned oids, so callers can
    treat every oid uniformly — e.g. the Supervisor labels its journal
    entries with whatever shard this returns.
    """
    base, infix, tail = name.rpartition(SHARD_INFIX)
    if infix and tail.isdigit():
        return base, int(tail)
    return name, None
