"""Tests for the shared routing package and the ShardRouter."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.routing import ShardRouter


def test_requires_at_least_one_shard():
    with pytest.raises(ValueError):
        ShardRouter(0)


def test_single_shard_routes_everything_to_zero():
    router = ShardRouter(1)
    assert all(router.shard_for(f"ws-{i}") == 0 for i in range(50))


def test_deterministic_across_instances():
    a = ShardRouter(4)
    b = ShardRouter(4)
    keys = [f"workspace-{i}" for i in range(200)]
    assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]


def test_shard_indices_in_range():
    router = ShardRouter(5)
    for i in range(500):
        assert 0 <= router.shard_for(f"ws-{i}") < 5


def test_distribution_roughly_uniform():
    router = ShardRouter(4)
    counts = Counter(router.shard_for(f"ws-{i}") for i in range(4000))
    assert set(counts) == {0, 1, 2, 3}
    for count in counts.values():
        # 4000 keys over 4 shards: each should get a meaningful share.
        assert count > 500


def test_non_string_keys_are_coerced():
    router = ShardRouter(4)
    assert router.shard_for(123) == router.shard_for("123")
