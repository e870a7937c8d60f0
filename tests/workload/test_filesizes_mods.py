"""Tests for the file-size sampler and modification engine (§5.2.1)."""

from __future__ import annotations

import random

import pytest

from repro.workload import (
    FileSizeSampler,
    HOMES_PATTERN_PROBABILITIES,
    MODIFICATION_SIZE_LIMIT,
    ModificationEngine,
    PAPER_MEAN_SIZE,
    PAPER_P90_BOUND,
)


def test_pattern_probabilities_match_paper():
    assert HOMES_PATTERN_PROBABILITIES["B"] == pytest.approx(0.38)
    assert HOMES_PATTERN_PROBABILITIES["E"] == pytest.approx(0.08)
    assert HOMES_PATTERN_PROBABILITIES["M"] == pytest.approx(0.03)
    assert sum(HOMES_PATTERN_PROBABILITIES.values()) == pytest.approx(1.0)


def test_sampler_matches_paper_statistics():
    sampler = FileSizeSampler(rng=random.Random(11))
    sizes = [sampler.sample() for _ in range(20_000)]
    mean = sum(sizes) / len(sizes)
    below_4mb = sum(1 for s in sizes if s < PAPER_P90_BOUND) / len(sizes)
    # Paper: mean ≈ 583 KB, 90% of files < 4 MB.
    assert mean == pytest.approx(PAPER_MEAN_SIZE, rel=0.15)
    assert below_4mb == pytest.approx(0.90, abs=0.02)


def test_sampler_minimum_size():
    sampler = FileSizeSampler(rng=random.Random(1), min_size=128)
    assert all(sampler.sample() >= 128 for _ in range(1000))


def test_pattern_sampling_distribution():
    engine = ModificationEngine(rng=random.Random(3))
    counts = {}
    for _ in range(10_000):
        pattern = engine.sample_pattern()
        counts[pattern] = counts.get(pattern, 0) + 1
    assert counts["B"] / 10_000 == pytest.approx(0.38, abs=0.03)
    assert counts["E"] / 10_000 == pytest.approx(0.08, abs=0.02)


def test_apply_b_prepends():
    engine = ModificationEngine(rng=random.Random(1))
    original = b"ORIGINAL" * 100
    modified, pattern = engine.apply(original, "B")
    assert pattern == "B"
    assert modified.endswith(original)
    assert len(modified) > len(original)


def test_apply_e_appends():
    engine = ModificationEngine(rng=random.Random(1))
    original = b"ORIGINAL" * 100
    modified, _ = engine.apply(original, "E")
    assert modified.startswith(original)


def test_apply_m_inserts_inside():
    engine = ModificationEngine(rng=random.Random(1))
    original = b"A" * 1000
    modified, _ = engine.apply(original, "M")
    assert len(modified) > 1000
    assert modified[:1] == b"A" and modified[-1:] == b"A"


def test_apply_combination_patterns():
    engine = ModificationEngine(rng=random.Random(1))
    original = b"X" * 500
    for pattern in ("BE", "BM", "EM"):
        modified, used = engine.apply(original, pattern)
        assert used == pattern
        assert len(modified) > len(original)


def test_edits_are_small():
    """The paper's 72 updates moved only ≈14 KB total (≈200 B each)."""
    engine = ModificationEngine(rng=random.Random(2))
    original = b"Z" * 10_000
    total_growth = 0
    for _ in range(100):
        modified, _ = engine.apply(original)
        total_growth += len(modified) - len(original)
    assert total_growth / 100 < 1200  # worst pattern = 3 edits x 384 B


def test_eligibility_limit():
    assert ModificationEngine.eligible(1024)
    assert not ModificationEngine.eligible(MODIFICATION_SIZE_LIMIT)
