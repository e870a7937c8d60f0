"""Trace splitting and the per-shard auto-scaling simulation."""

from __future__ import annotations

from repro.objectmq.provisioner import FixedProvisioner
from repro.simulation import (
    ShardedAutoscaleSimulation,
    SimConfig,
    split_arrivals,
)
from repro.telemetry.control import KIND_DECISION, DecisionJournal


def test_split_preserves_totals_exactly():
    trace = [10, 0, 25, 3, 100]
    shards = split_arrivals(trace, 4, seed=7)
    assert len(shards) == 4
    for shard_trace in shards:
        assert len(shard_trace) == len(trace)
    for second, total in enumerate(trace):
        assert sum(t[second] for t in shards) == total


def test_split_is_deterministic():
    trace = [5] * 20
    assert split_arrivals(trace, 3, seed=1) == split_arrivals(trace, 3, seed=1)
    assert split_arrivals(trace, 3, seed=1) != split_arrivals(trace, 3, seed=2)


def test_split_roughly_uniform():
    shards = split_arrivals([1000] * 10, 4, seed=3)
    per_shard = [sum(t) for t in shards]
    assert sum(per_shard) == 10_000
    for total in per_shard:
        assert 2_000 < total < 3_000


def test_single_shard_split_is_identity():
    trace = [3, 1, 4, 1, 5]
    assert split_arrivals(trace, 1) == [trace]


def test_sharded_simulation_completes_all_work_and_tags_journal():
    journal = DecisionJournal()
    simulation = ShardedAutoscaleSimulation(
        [20] * 30,
        lambda: FixedProvisioner(2),
        shards=2,
        config=SimConfig(control_interval=5.0, spawn_delay=0.1, seed=11),
        journal=journal,
    )
    result = simulation.run()
    assert len(result.shard_results) == 2
    assert result.total_arrivals == 20 * 30
    assert result.total_completed == result.total_arrivals
    assert result.response_times()

    decisions = journal.events(KIND_DECISION)
    assert {e.data["shard"] for e in decisions} == {0, 1}
    assert {e.data["oid"] for e in decisions} == {
        "syncservice.shard.0",
        "syncservice.shard.1",
    }
    # Fleet-wide capacity sums the per-shard pools.
    assert max(c for _t, c in result.total_capacity_series()) == 4
