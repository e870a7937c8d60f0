"""Tests for the consistent-hash placement ring."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import ring as ring_module
from repro.storage import HashRing


def test_requires_devices():
    with pytest.raises(ValueError):
        HashRing([])


def test_deterministic_placement():
    ring_a = HashRing(["n0", "n1", "n2", "n3"], replicas=2)
    ring_b = HashRing(["n0", "n1", "n2", "n3"], replicas=2)
    for key in ("alpha", "beta", "gamma"):
        assert ring_a.devices_for(key) == ring_b.devices_for(key)


def test_replica_count_and_distinctness():
    ring = HashRing(["n0", "n1", "n2", "n3"], replicas=3)
    devices = ring.devices_for("some-key")
    assert len(devices) == 3
    assert len(set(devices)) == 3


def test_replicas_clamped_to_device_count():
    ring = HashRing(["only"], replicas=3)
    assert ring.devices_for("k") == ["only"]


def test_load_roughly_balanced():
    ring = HashRing([f"n{i}" for i in range(4)], replicas=2)
    keys = [f"chunk-{i}" for i in range(2000)]
    distribution = Counter(ring.primary_for(key) for key in keys)
    assert set(distribution) == set(ring.devices)
    for count in distribution.values():
        assert 0.10 < count / 2000 < 0.45  # no starved or hot device


def test_duplicate_devices_are_collapsed():
    ring = HashRing(["a", "b", "a"], replicas=3)
    assert ring.devices == ["a", "b"]
    assert ring.replicas == 2
    assert sorted(ring.devices_for("k")) == ["a", "b"]


def test_one_more_device_moves_limited_keys():
    keys = [f"chunk-{i}" for i in range(1000)]
    four = HashRing([f"n{i}" for i in range(4)], replicas=1)
    five = HashRing([f"n{i}" for i in range(5)], replicas=1)
    moved = [k for k in keys if four.primary_for(k) != five.primary_for(k)]
    # Rendezvous hashing moves ~1/5 of keys going 4 -> 5 devices, and
    # every moved key moves to the new device.
    assert moved and len(moved) / len(keys) < 0.35
    assert {five.primary_for(k) for k in moved} == {"n4"}


def test_a_ring_without_a_device_remaps_only_its_keys():
    keys = [f"chunk-{i}" for i in range(1000)]
    full = HashRing([f"n{i}" for i in range(4)], replicas=1)
    without = HashRing(["n0", "n1", "n3"], replicas=1)
    for key in keys:
        before = full.primary_for(key)
        if before != "n2":
            assert without.primary_for(key) == before
        else:
            assert without.primary_for(key) != "n2"


@settings(max_examples=50, deadline=None)
@given(key=st.text(min_size=1, max_size=40))
def test_property_placement_stable_without_an_unrelated_device(key):
    """Dropping a device never remaps keys it did not own (primary)."""
    devices = ["n0", "n1", "n2", "n3"]
    primary = HashRing(devices, replicas=1).primary_for(key)
    victim = next(d for d in devices if d != primary)
    survivors = [d for d in devices if d != victim]
    assert HashRing(survivors, replicas=1).primary_for(key) == primary


@settings(max_examples=100, deadline=None)
@given(key=st.text(min_size=1, max_size=40))
def test_property_primary_is_first_replica(key):
    ring = HashRing(["n0", "n1", "n2"], replicas=2)
    assert ring.primary_for(key) == ring.devices_for(key)[0]


def _eager_assignments(devices, replicas, partitions=256):
    """Reference: every partition's replicas by rendezvous hashing, up front
    (what the ring computed at construction before it hashed on demand)."""
    score = ring_module._hash_to_int
    return [
        sorted(devices, key=lambda dev: score(f"{p}:{dev}"), reverse=True)[:replicas]
        for p in range(partitions)
    ]


def test_ring_hashes_nothing_until_the_first_lookup(monkeypatch):
    calls = []
    real = ring_module._hash_to_int
    monkeypatch.setattr(
        ring_module, "_hash_to_int", lambda value: calls.append(value) or real(value)
    )
    ring = HashRing([f"n{i}" for i in range(4)], replicas=2)
    assert calls == []
    ring.primary_for("some-key")
    assert len(calls) == 1 + 4  # the key, then one partition x four devices
    ring.devices_for("some-key")
    assert len(calls) == 2 + 4  # the partition's replicas are memoised


def test_lazy_ring_matches_eager_reference():
    rng = random.Random(21)
    keys = [f"{rng.getrandbits(64):016x}" for _ in range(1000)]
    for devices, replicas in ((5, 3), (6, 3), (4, 2)):
        ring = HashRing([f"n{i}" for i in range(devices)], replicas=replicas)
        reference = _eager_assignments(ring.devices, ring.replicas)
        for key in keys:
            expected = reference[ring.partition_for(key)]
            assert ring.devices_for(key) == expected
            assert ring.primary_for(key) == expected[0]
