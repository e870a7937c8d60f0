"""Tests for the benchmark harness (reporting, registry, replay)."""

from __future__ import annotations

import pytest

from repro.baselines import COMMERCIAL_PROFILES, DROPBOX
from repro.bench import (
    EXPERIMENTS,
    mb,
    render_boxplot_row,
    render_cdf,
    render_series,
    render_table,
    replay_profile,
    replay_stacksync,
)
from repro.simulation import boxplot_stats
from repro.workload import TraceGenerator
from repro.workload.trace import OP_ADD, OP_REMOVE, OP_UPDATE


def test_render_table_alignment():
    table = render_table(["name", "value"], [["a", 1.5], ["bb", 22]])
    lines = table.splitlines()
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "name" in table and "bb" in table


def test_render_series_bounds():
    chart = render_series("t", [(0, 0.0), (1, 1.0), (2, 4.0)], width=20, height=5)
    assert "t" in chart
    assert "*" in chart
    assert "4.00" in chart


def test_render_series_empty():
    assert "(no data)" in render_series("t", [])


def test_render_cdf():
    text = render_cdf("sizes", [1, 2, 3, 10], probes=[2, 10])
    assert "50.00%" in text
    assert "100.00%" in text


def test_render_boxplot_row():
    stats = boxplot_stats([1.0, 2.0, 3.0])
    row = render_boxplot_row("ADD", stats, unit_scale=1000, unit="ms")
    assert "med=" in row and "ADD" in row


def test_render_dual_series_glyphs():
    from repro.bench.reporting import render_dual_series

    chart = render_dual_series(
        "compare",
        [(0, 1.0), (10, 2.0)],
        [(0, 1.0), (10, 4.0)],
        label_a="obs",
        label_b="pred",
        width=20,
        height=5,
    )
    assert "*=obs" in chart and "o=pred" in chart
    assert "@" in chart  # both series share the (0, 1.0) cell
    assert "o" in chart  # pred-only cell at (10, 4.0)
    assert "(no data)" in render_dual_series("empty", [], [])


def test_render_provisioning_timeline_sections():
    from repro.bench.reporting import render_provisioning_timeline

    events = [
        {"kind": "decision", "timestamp": 0.0, "seq": 1, "lam_obs": 10.0,
         "lam_pred": 12.0, "census": 1, "desired": 2, "reason": "grow"},
        {"kind": "spawn", "timestamp": 0.0, "seq": 2, "reason": "scale-up",
         "policy_reason": "grow", "decision_seq": 1},
        {"kind": "decision", "timestamp": 5.0, "seq": 3, "lam_obs": 11.0,
         "lam_pred": 12.0, "census": 2, "desired": 2, "reason": "hold"},
        {"kind": "alert-fired", "timestamp": 5.0, "seq": 4, "rule": "backlog",
         "severity": "warn", "series": "depth", "op": ">", "threshold": 50,
         "value": 60.0},
    ]
    text = render_provisioning_timeline(events)
    assert "Pool size over time" in text
    assert "observed vs predicted" in text
    assert "scale-up" in text and "grow" in text
    assert "backlog" in text and "depth > 50" in text


def test_render_provisioning_timeline_truncates_actions():
    from repro.bench.reporting import render_provisioning_timeline

    events = [
        {"kind": "decision", "timestamp": 0.0, "seq": 1, "lam_obs": 1.0,
         "lam_pred": 1.0, "census": 0, "desired": 5, "reason": "r"},
    ] + [
        {"kind": "spawn", "timestamp": float(i), "seq": i + 2,
         "reason": "scale-up", "policy_reason": "r", "decision_seq": 1}
        for i in range(10)
    ]
    text = render_provisioning_timeline(events, max_actions=3)
    assert "first 3 of 10" in text


def test_mb():
    assert mb(1024 * 1024) == 1.0


def test_experiment_registry_covers_all_artifacts():
    expected = {
        "T1", "T2", "T3",
        "F7a", "F7b", "F7c", "F7d", "F7e", "F7f",
        "F8a", "F8b", "F8c", "F8d", "F8e", "F8f",
    }
    assert set(EXPERIMENTS) == expected
    for experiment in EXPERIMENTS.values():
        assert experiment.bench_file.startswith("benchmarks/")
        assert experiment.expectations


@pytest.fixture(scope="module")
def tiny_trace():
    return TraceGenerator(seed=11, snapshots=10, scale=0.02).generate()


def test_replay_stacksync_produces_traffic(tiny_trace):
    report = replay_stacksync(tiny_trace, compressible_fraction=0.05)
    assert report.provider == "StackSync"
    assert report.operations == len(tiny_trace)
    assert report.storage_bytes > tiny_trace.add_volume * 0.8
    assert report.control_bytes > 0
    assert OP_ADD in report.by_action_storage
    # REMOVEs move no data.
    assert report.by_action_storage.get(OP_REMOVE, 0) < 5_000


def test_replay_stacksync_vs_dropbox_shape(tiny_trace):
    """The headline Fig 7(b) ordering at miniature scale."""
    stacksync = replay_stacksync(tiny_trace, compressible_fraction=0.05)
    dropbox = replay_profile(tiny_trace, DROPBOX, compressible_fraction=0.05)
    benchmark = tiny_trace.add_volume
    assert stacksync.overhead_ratio(benchmark) < dropbox.overhead_ratio(benchmark)
    assert stacksync.control_bytes < dropbox.control_bytes


def test_replay_profiles_all_providers(tiny_trace):
    for name, profile in COMMERCIAL_PROFILES.items():
        report = replay_profile(tiny_trace, profile)
        assert report.provider == name
        assert report.total_bytes > 0
