"""Tests for the consistent-hash placement ring."""

from __future__ import annotations

import random

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
    distribution = ring.load_distribution(keys)
    for count in distribution.values():
        assert 0.10 < count / 2000 < 0.45  # no starved or hot device


def test_add_device_moves_limited_keys():
    ring = HashRing([f"n{i}" for i in range(4)], replicas=1)
    keys = [f"chunk-{i}" for i in range(1000)]
    before = {k: ring.primary_for(k) for k in keys}
    ring.add_device("n4")
    moved = sum(1 for k in keys if ring.primary_for(k) != before[k])
    # Rendezvous hashing moves ~1/5 of keys when going 4 -> 5 devices.
    assert moved / 1000 < 0.35


def test_remove_device_only_remaps_its_keys():
    ring = HashRing([f"n{i}" for i in range(4)], replicas=1)
    keys = [f"chunk-{i}" for i in range(1000)]
    before = {k: ring.primary_for(k) for k in keys}
    ring.remove_device("n2")
    for key in keys:
        after = ring.primary_for(key)
        if before[key] != "n2":
            assert after == before[key]
        else:
            assert after != "n2"


def test_cannot_remove_last_device():
    ring = HashRing(["only"])
    with pytest.raises(ValueError):
        ring.remove_device("only")


def test_idempotent_membership_changes():
    ring = HashRing(["a", "b"])
    ring.add_device("a")
    assert ring.devices == ["a", "b"]
    ring.remove_device("zz")
    assert ring.devices == ["a", "b"]


@settings(max_examples=100, deadline=None)
@given(key=st.text(min_size=1, max_size=40))
def test_property_primary_is_first_replica(key):
    ring = HashRing(["n0", "n1", "n2"], replicas=2)
    assert ring.primary_for(key) == ring.devices_for(key)[0]


@settings(max_examples=50, deadline=None)
@given(key=st.text(min_size=1, max_size=40))
def test_property_placement_stable_under_unrelated_removal(key):
    """Removing a device never remaps keys it did not own (primary)."""
    ring = HashRing(["n0", "n1", "n2", "n3"], replicas=1)
    primary = ring.primary_for(key)
    victim = next(d for d in ring.devices if d != primary)
    ring.remove_device(victim)
    assert ring.primary_for(key) == primary


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


def test_lazy_ring_matches_eager_reference_across_membership_changes():
    rng = random.Random(21)
    keys = [f"{rng.getrandbits(64):016x}" for _ in range(1000)]
    devices = [f"n{i}" for i in range(5)]
    ring = HashRing(devices, replicas=3)

    def check():
        reference = _eager_assignments(ring.devices, ring.replicas)
        for key in keys:
            expected = reference[ring.partition_for(key)]
            assert ring.devices_for(key) == expected
            assert ring.primary_for(key) == expected[0]

    check()
    ring.add_device("n5")
    check()
    ring.remove_device("n1")
    check()
