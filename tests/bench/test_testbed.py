"""Tests for the benchmark testbed builder and traffic report plumbing."""

from __future__ import annotations

import pytest

from repro.baselines.baseline_client import TrafficReport
from repro.bench.overhead import build_testbed, replay_stacksync
from repro.workload import Trace, TraceOp
from repro.workload.trace import OP_ADD, OP_REMOVE, OP_UPDATE


def test_build_testbed_is_functional():
    testbed = build_testbed(instances=2)
    try:
        meta = testbed.client.put_file("x.txt", b"hello")
        assert testbed.client.wait_for_version(meta.item_id, meta.version, timeout=10)
        assert testbed.metadata.item_history(meta.item_id)[-1].version == 1
    finally:
        testbed.close()


def test_traffic_report_accumulates():
    report = TrafficReport(provider="X")
    report.add(OP_ADD, control=10, storage=100)
    report.add(OP_ADD, control=5, storage=50)
    report.add(OP_REMOVE, control=3, storage=0)
    assert report.control_bytes == 18
    assert report.storage_bytes == 150
    assert report.total_bytes == 168
    assert report.operations == 3
    assert report.by_action_control[OP_ADD] == 15
    assert report.by_action_storage[OP_REMOVE] == 0


def test_replay_stacksync_full_lifecycle_of_one_file():
    trace = Trace(
        ops=[
            TraceOp(op=OP_ADD, path="f", snapshot=0, size=4000),
            TraceOp(op=OP_UPDATE, path="f", snapshot=1, size=4000, pattern="E"),
            TraceOp(op=OP_REMOVE, path="f", snapshot=2),
        ],
        seed=3,
    )
    report = replay_stacksync(trace, compressible_fraction=0.0)
    assert report.operations == 3
    # ADD moved ~the file size; UPDATE re-uploaded (append pattern on a
    # single-chunk file); REMOVE moved only control bytes.
    assert report.by_action_storage[OP_ADD] >= 4000
    assert report.by_action_storage[OP_UPDATE] >= 4000
    assert report.by_action_storage.get(OP_REMOVE, 0) < 2000
    assert report.by_action_control[OP_REMOVE] > 0


def test_replay_stacksync_batching_counts_batches():
    trace = Trace(
        ops=[TraceOp(op=OP_ADD, path=f"f{i}", snapshot=0, size=100) for i in range(7)],
        seed=3,
    )
    report = replay_stacksync(trace, batch_size=3, compressible_fraction=0.0)
    assert report.batches == 3  # 3 + 3 + 1
