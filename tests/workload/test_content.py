"""Tests for deterministic synthetic content generation."""

from __future__ import annotations

import zlib

from repro.workload import ContentStore, generate_content


def test_exact_size():
    for size in (0, 1, 100, 4096, 10_000):
        assert len(generate_content("p", size)) == size


def test_deterministic_per_path_and_seed():
    assert generate_content("a", 5000, seed=1) == generate_content("a", 5000, seed=1)
    assert generate_content("a", 5000, seed=1) != generate_content("a", 5000, seed=2)
    assert generate_content("a", 5000, seed=1) != generate_content("b", 5000, seed=1)


def test_compressibility_dial():
    incompressible = generate_content("p", 100_000, compressible_fraction=0.0)
    compressible = generate_content("p", 100_000, compressible_fraction=1.0)
    ratio_in = len(zlib.compress(incompressible, 1)) / 100_000
    ratio_co = len(zlib.compress(compressible, 1)) / 100_000
    assert ratio_in > 0.9
    assert ratio_co < 0.1


def test_content_store_lifecycle():
    store = ContentStore(seed=3)
    created = store.create("f", 1000)
    assert store.get("f") == created
    assert store.exists("f")
    store.set("f", b"replaced")
    assert store.get("f") == b"replaced"
    store.delete("f")
    assert not store.exists("f")


def test_content_store_pins_compressibility():
    store = ContentStore(seed=1, compressible_fraction=0.0)
    data = store.create("f", 50_000)
    assert len(zlib.compress(data, 1)) / 50_000 > 0.9
