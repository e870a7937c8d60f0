"""Tests for the N/M/U/D Markov file-state model (§5.2.1)."""

from __future__ import annotations

import random

import pytest

from repro.workload import FileStateMarkov, HOMES_TRANSITIONS
from repro.workload.markov import STATE_DELETED, STATE_NEW, STATE_UNMODIFIED


def test_homes_matrix_rows_sum_to_one():
    for state, row in HOMES_TRANSITIONS.items():
        assert sum(row.values()) == pytest.approx(1.0)


def test_deleted_is_absorbing():
    assert HOMES_TRANSITIONS[STATE_DELETED] == {STATE_DELETED: 1.0}


def test_invalid_matrix_rejected():
    with pytest.raises(ValueError):
        FileStateMarkov(transitions={STATE_NEW: {STATE_UNMODIFIED: 0.5}})
    with pytest.raises(ValueError):
        FileStateMarkov(transitions={"X": {STATE_UNMODIFIED: 1.0}})


def test_seed_files_all_new():
    model = FileStateMarkov(rng=random.Random(1))
    paths = model.seed_files(5)
    assert len(paths) == 5
    assert len(model.files) == 5
    assert all(model.files[p].state == STATE_NEW for p in paths)


def test_step_moves_population():
    model = FileStateMarkov(rng=random.Random(1))
    model.seed_files(100)
    result = model.step()
    assert set(result) == {"added", "modified", "deleted"}
    # After one step, NEW files have transitioned (mostly to U).
    unmodified = sum(
        1 for f in model.files.values() if f.state == STATE_UNMODIFIED
    )
    assert unmodified > 80


def test_deleted_files_leave_population():
    model = FileStateMarkov(rng=random.Random(1), arrivals_per_snapshot=0.0)
    model.seed_files(50)
    total_deleted = 0
    for _ in range(200):
        total_deleted += len(model.step()["deleted"])
    assert len(model.files) == 50 - total_deleted


def test_zero_arrivals():
    model = FileStateMarkov(rng=random.Random(1), arrivals_per_snapshot=0.0)
    model.seed_files(10)
    assert model.step()["added"] == []


def test_arrival_rate_roughly_calibrated():
    model = FileStateMarkov(rng=random.Random(5), arrivals_per_snapshot=8.8)
    model.seed_files(20)
    added = sum(len(model.step()["added"]) for _ in range(200))
    assert added / 200 == pytest.approx(8.8, rel=0.2)


def test_reproducible_with_same_seed():
    def run(seed):
        model = FileStateMarkov(rng=random.Random(seed))
        model.seed_files(20)
        return [sorted(model.step().items()) for _ in range(10)]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_unique_paths():
    model = FileStateMarkov(rng=random.Random(1))
    model.seed_files(10)
    all_paths = set(model.files)
    for _ in range(20):
        step = model.step()
        for path in step["added"]:
            assert path not in all_paths
            all_paths.add(path)
