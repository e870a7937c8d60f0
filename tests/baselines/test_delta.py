"""Tests for the rsync-style delta encoding (the librsync role)."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import apply_delta, compute_delta, compute_signature


def literal_bytes(delta) -> int:
    return sum(len(op[1]) for op in delta.ops if op[0] == "literal")


def rand(n, seed=0):
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(n))


def round_trip(old, new, block_size=512):
    signature = compute_signature(old, block_size)
    delta = compute_delta(signature, new)
    assert apply_delta(old, delta) == new
    return signature, delta


def test_identical_files_all_copies():
    old = rand(8192, 1)
    _sig, delta = round_trip(old, old)
    assert literal_bytes(delta) == 0
    assert delta.wire_size < len(old) / 10


def test_prepend_small_delta():
    """The B-pattern case: delta stays tiny despite every byte shifting."""
    old = rand(100_000, 2)
    new = rand(200, 3) + old
    _sig, delta = round_trip(old, new, block_size=1024)
    assert literal_bytes(delta) <= 200 + 1024  # edit + ≤1 broken block
    assert delta.wire_size < len(new) / 20


def test_append_small_delta():
    old = rand(50_000, 4)
    new = old + rand(300, 5)
    _sig, delta = round_trip(old, new, block_size=1024)
    assert delta.wire_size < len(new) / 10


def test_middle_insert_small_delta():
    old = rand(50_000, 6)
    new = old[:20_000] + rand(250, 7) + old[20_000:]
    _sig, delta = round_trip(old, new, block_size=1024)
    assert delta.wire_size < len(new) / 10


def test_total_rewrite_costs_full_literals():
    old = rand(10_000, 8)
    new = rand(10_000, 9)
    _sig, delta = round_trip(old, new, block_size=512)
    assert literal_bytes(delta) == len(new)


def test_empty_old_file():
    _sig, delta = round_trip(b"", rand(3000, 10))
    assert literal_bytes(delta) == 3000


def test_empty_new_file():
    _sig, delta = round_trip(rand(3000, 11), b"")
    assert literal_bytes(delta) == 0
    assert delta.ops == ()


def test_signature_wire_size_proportional_to_blocks():
    data = rand(10_240, 12)
    signature = compute_signature(data, 1024)
    assert len(signature.blocks) == 10
    assert signature.wire_size == 8 + 10 * 16


def test_block_size_validation():
    with pytest.raises(ValueError):
        compute_signature(b"x", 0)


def test_shared_suffix_after_truncation():
    old = rand(20_000, 13)
    new = old[:10_240]  # truncate at a block boundary
    _sig, delta = round_trip(old, new, block_size=1024)
    assert literal_bytes(delta) == 0


def test_old_file_with_repeated_blocks():
    """Identical blocks in the old file alias in the signature table;
    any of them may be referenced, but reconstruction must be exact."""
    block = rand(1024, 20)
    old = block * 8  # eight identical blocks
    new = rand(100, 21) + old + rand(100, 22)
    _sig, delta = round_trip(old, new, block_size=1024)
    assert literal_bytes(delta) <= 200 + 2 * 1024


def test_new_file_reuses_one_old_block_many_times():
    block = rand(512, 23)
    old = rand(2048, 24) + block + rand(2048, 25)
    new = block * 10  # the new file is that one block, repeated
    _sig, delta = round_trip(old, new, block_size=512)
    assert sum(1 for op in delta.ops if op[0] == "copy") == 10
    assert literal_bytes(delta) == 0


@settings(max_examples=40, deadline=None)
@given(
    old=st.binary(max_size=8000),
    edit=st.binary(max_size=200),
    position=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_delta_reconstructs(old, edit, position):
    cut = int(len(old) * position)
    new = old[:cut] + edit + old[cut:]
    signature = compute_signature(old, 256)
    delta = compute_delta(signature, new)
    assert apply_delta(old, delta) == new


@settings(max_examples=30, deadline=None)
@given(old=st.binary(max_size=5000), new=st.binary(max_size=5000))
def test_property_arbitrary_pairs_reconstruct(old, new):
    signature = compute_signature(old, 128)
    delta = compute_delta(signature, new)
    assert apply_delta(old, delta) == new
