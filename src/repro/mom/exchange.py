"""AMQP-style exchanges: direct and fanout routing.

The paper's ObjectMQ uses two routing behaviours (§3):

* unicast RPCs go through the *default direct exchange* — routing key equals
  the target queue name (the remote object's ``oid`` queue);
* multicast RPCs go through a *fanout exchange* named ``<oid>.multi``, to
  which each receiving ObjectMQ ``Broker`` binds its one multicast queue
  while it hosts an instance of the oid, so a message is copied once per
  receiving Broker, not once per instance.

Routing is memoized: bindings change rarely (instance churn) while
publishes are the hot path, so every exchange caches
``routing_key → destination list`` and invalidates the memo on
bind/unbind.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set


class Exchange:
    """Base exchange: a named router from routing keys to queue names."""

    type_name = "base"

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        # binding key -> set of queue names
        self._bindings: Dict[str, Set[str]] = {}
        # routing key -> resolved destination list; rebuilt lazily after
        # any binding mutation.  Hit on every publish, so misses are the
        # exception once a topology settles.
        self._route_cache: Dict[str, List[str]] = {}

    def bind(self, queue_name: str, binding_key: str = "") -> None:
        with self._lock:
            self._bindings.setdefault(binding_key, set()).add(queue_name)
            self._route_cache.clear()

    def unbind(self, queue_name: str, binding_key: str = "") -> None:
        with self._lock:
            queues = self._bindings.get(binding_key)
            if queues is not None:
                queues.discard(queue_name)
                if not queues:
                    del self._bindings[binding_key]
                self._route_cache.clear()

    def unbind_queue_everywhere(self, queue_name: str) -> None:
        """Drop *queue_name* from every binding (queue deletion path)."""
        with self._lock:
            empty_keys = []
            for key, queues in self._bindings.items():
                queues.discard(queue_name)
                if not queues:
                    empty_keys.append(key)
            for key in empty_keys:
                del self._bindings[key]
            self._route_cache.clear()

    def route(self, routing_key: str) -> List[str]:
        """Return destination queue names for *routing_key* (memoized)."""
        with self._lock:
            cached = self._route_cache.get(routing_key)
            if cached is None:
                cached = self._route_locked(routing_key)
                self._route_cache[routing_key] = cached
            # Hand out a copy: the memo must stay immutable to callers.
            return list(cached)

    def _route_locked(self, routing_key: str) -> List[str]:
        """Resolve *routing_key* with ``self._lock`` held (cache miss)."""
        raise NotImplementedError

    def has_bindings(self) -> bool:
        """Cheap emptiness probe — publishers use it to skip dead fanouts.

        Reads the binding table without the exchange lock: dict emptiness
        is an atomic read under CPython, and the probe's contract already
        tolerates racing a concurrent (un)bind.
        """
        return bool(self._bindings)


class DirectExchange(Exchange):
    """Route to queues whose binding key exactly matches the routing key."""

    type_name = "direct"

    def _route_locked(self, routing_key: str) -> List[str]:
        return sorted(self._bindings.get(routing_key, ()))


class FanoutExchange(Exchange):
    """Route every message to every bound queue, ignoring the routing key.

    This is the primitive behind ObjectMQ's @MultiMethod: each ``Broker``
    hosting an instance of an ``oid`` binds its one multicast queue to the
    ``<oid>.multi`` exchange, so one publish reaches every receiving Broker,
    which runs it on each of its local instances (Fig 1 / Fig 5).
    """

    type_name = "fanout"

    def _route_locked(self, routing_key: str) -> List[str]:
        result: Set[str] = set()
        for queues in self._bindings.values():
            result |= queues
        return sorted(result)


EXCHANGE_TYPES = {
    "direct": DirectExchange,
    "fanout": FanoutExchange,
}
