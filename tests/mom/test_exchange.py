"""Unit tests for direct and fanout exchanges."""

from __future__ import annotations

from repro.mom.exchange import DirectExchange, FanoutExchange


def test_direct_exact_match_only():
    exchange = DirectExchange("x")
    exchange.bind("q1", "alpha")
    exchange.bind("q2", "beta")
    assert exchange.route("alpha") == ["q1"]
    assert exchange.route("beta") == ["q2"]
    assert exchange.route("gamma") == []


def test_direct_multiple_queues_same_key():
    exchange = DirectExchange("x")
    exchange.bind("q1", "k")
    exchange.bind("q2", "k")
    assert exchange.route("k") == ["q1", "q2"]


def test_fanout_ignores_routing_key():
    exchange = FanoutExchange("x")
    exchange.bind("q1")
    exchange.bind("q2", "irrelevant")
    assert exchange.route("anything") == ["q1", "q2"]
    assert exchange.route("") == ["q1", "q2"]


def test_fanout_empty_routes_nowhere():
    assert FanoutExchange("x").route("k") == []


def test_unbind_removes_queue():
    exchange = DirectExchange("x")
    exchange.bind("q1", "k")
    exchange.unbind("q1", "k")
    assert exchange.route("k") == []


def test_unbind_queue_everywhere():
    exchange = DirectExchange("x")
    exchange.bind("q1", "a")
    exchange.bind("q1", "b")
    exchange.bind("q2", "a")
    exchange.unbind_queue_everywhere("q1")
    assert exchange.route("a") == ["q2"]
    assert exchange.route("b") == []


def test_a_queue_bound_under_two_keys_routes_from_each():
    exchange = DirectExchange("x")
    exchange.bind("q1", "a")
    exchange.bind("q2", "a")
    exchange.bind("q1", "b")
    assert exchange.route("a") == ["q1", "q2"]
    assert exchange.route("b") == ["q1"]


def test_fanout_routes_a_queue_bound_twice_once():
    exchange = FanoutExchange("x")
    exchange.bind("q1", "a")
    exchange.bind("q1", "b")
    exchange.bind("q2", "a")
    assert exchange.route("") == ["q1", "q2"]


# -- route memoization --------------------------------------------------------


class _CountingDirect(DirectExchange):
    """Counts memo misses: each one resolves the key from the bindings."""

    misses = 0

    def _route_locked(self, routing_key):
        self.misses += 1
        return super()._route_locked(routing_key)


def test_route_results_are_memoized_per_key():
    exchange = _CountingDirect("x")
    exchange.bind("q", "k1")
    assert exchange.route("k1") == ["q"]
    assert exchange.route("k2") == []
    assert exchange.route("k1") == ["q"]  # hit: resolved once
    assert exchange.misses == 2


def test_bind_invalidates_route_cache():
    exchange = _CountingDirect("x")
    exchange.bind("q1", "k")
    assert exchange.route("k") == ["q1"]
    exchange.bind("q2", "k")
    assert exchange.route("k") == ["q1", "q2"]
    assert exchange.misses == 2


def test_unbind_invalidates_route_cache():
    exchange = FanoutExchange("x")
    exchange.bind("q1")
    exchange.bind("q2")
    assert exchange.route("anything") == ["q1", "q2"]
    exchange.unbind("q1")
    assert exchange.route("anything") == ["q2"]
    exchange.unbind_queue_everywhere("q2")
    assert exchange.route("anything") == []


def test_cached_route_lists_are_safe_to_mutate():
    exchange = DirectExchange("x")
    exchange.bind("q1", "k")
    first = exchange.route("k")
    first.append("tampered")
    assert exchange.route("k") == ["q1"]
