"""Tests for the trace generator and replayer (§5.2.1)."""

from __future__ import annotations

import pytest

from repro.workload import (
    OP_ADD,
    OP_REMOVE,
    OP_UPDATE,
    Trace,
    TraceGenerator,
    TraceOp,
    TraceReplayer,
)


@pytest.fixture(scope="module")
def paper_trace():
    return TraceGenerator(seed=7).generate()


def test_trace_statistics_near_paper(paper_trace):
    """Paper: 940 ADDs, 72 UPDATEs, 228 REMOVEs, 535 MB, mean 583 KB."""
    summary = paper_trace.summary()
    assert 800 <= summary["adds"] <= 1100
    assert 40 <= summary["updates"] <= 120
    assert 150 <= summary["removes"] <= 320
    assert 380 <= summary["add_volume_mb"] <= 750
    assert 380 <= summary["mean_file_size_kb"] <= 800


def test_trace_deterministic_per_seed():
    assert TraceGenerator(seed=3).generate().ops == TraceGenerator(seed=3).generate().ops
    assert TraceGenerator(seed=3).generate().ops != TraceGenerator(seed=4).generate().ops


def test_trace_referential_integrity(paper_trace):
    """UPDATE/REMOVE only touch files that exist at that point."""
    live = set()
    for op in paper_trace:
        if op.op == OP_ADD:
            assert op.path not in live
            live.add(op.path)
        elif op.op == OP_UPDATE:
            assert op.path in live
        elif op.op == OP_REMOVE:
            assert op.path in live
            live.remove(op.path)


def test_scale_shrinks_sizes_only():
    full = TraceGenerator(seed=9, scale=1.0).generate()
    small = TraceGenerator(seed=9, scale=0.1).generate()
    assert len(full) == len(small)
    assert [o.op for o in full] == [o.op for o in small]
    assert small.add_volume < full.add_volume * 0.15


def test_updates_have_patterns(paper_trace):
    for op in paper_trace:
        if op.op == OP_UPDATE:
            assert op.pattern


def test_file_sizes_for_cdf(paper_trace):
    sizes = paper_trace.file_sizes()
    assert len(sizes) == paper_trace.count(OP_ADD)
    assert all(s > 0 for s in sizes)


def test_replayer_materializes_adds():
    trace = TraceGenerator(seed=5, scale=0.02).generate()
    replayer = TraceReplayer(trace)
    op = next(o for o in trace if o.op == OP_ADD)
    content = replayer.materialize(op)
    assert len(content) == op.size


def test_replayer_update_mutates_previous_content():
    trace = Trace(
        ops=[
            TraceOp(op=OP_ADD, path="f", snapshot=0, size=2000),
            TraceOp(op=OP_UPDATE, path="f", snapshot=1, size=2000, pattern="B"),
        ],
        seed=1,
    )
    replayer = TraceReplayer(trace)
    original = replayer.materialize(trace.ops[0])
    updated = replayer.materialize(trace.ops[1])
    assert updated != original
    assert updated.endswith(original)  # B-pattern prepends


def test_replayer_remove_clears_content():
    trace = Trace(
        ops=[
            TraceOp(op=OP_ADD, path="f", snapshot=0, size=100),
            TraceOp(op=OP_REMOVE, path="f", snapshot=1),
        ],
        seed=1,
    )
    replayer = TraceReplayer(trace)
    replayer.materialize(trace.ops[0])
    assert replayer.materialize(trace.ops[1]) is None
    assert not replayer.content.exists("f")


def test_replayer_deterministic_across_replays():
    trace = TraceGenerator(seed=5, scale=0.02).generate()
    contents_a = [TraceReplayer(trace).materialize(op) for op in trace.ops[:10]]
    contents_b = [TraceReplayer(trace).materialize(op) for op in trace.ops[:10]]
    assert contents_a == contents_b


def test_replayer_update_on_unseen_file_degrades_to_add():
    trace = Trace(
        ops=[TraceOp(op=OP_UPDATE, path="ghost", snapshot=0, size=500, pattern="E")],
        seed=1,
    )
    content = TraceReplayer(trace).materialize(trace.ops[0])
    assert len(content) == 500
