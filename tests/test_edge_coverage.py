"""Edge-path tests across subsystems not covered by the focused suites."""

from __future__ import annotations

import random
import time

import pytest

from repro.client import conflicted_copy_name
from repro.storage import LatencyModel, LatencyProfile
from repro.workload import Trace, TraceGenerator, TraceReplayer


# -- latency model -----------------------------------------------------------------------


def test_latency_model_sleeps_when_enabled():
    model = LatencyModel(
        profile=LatencyProfile(base=0.02, bandwidth=float("inf"), jitter=0.0),
        sleep=True,
    )
    started = time.perf_counter()
    charged = model.charge(0)
    elapsed = time.perf_counter() - started
    assert charged == pytest.approx(0.02)
    assert elapsed >= 0.015
    assert model.operations == 1


def test_latency_jitter_bounded():
    model = LatencyModel(
        profile=LatencyProfile(base=0.010, bandwidth=float("inf"), jitter=0.5),
        sleep=False,
        rng=random.Random(3),
    )
    for _ in range(200):
        latency = model.latency_for(0)
        assert 0.005 <= latency <= 0.015


# -- misc client helpers --------------------------------------------------------------------


def test_conflicted_copy_name_without_extension():
    assert conflicted_copy_name("Makefile", "dev-9") == "Makefile (conflicted copy dev-9)"
    assert conflicted_copy_name("a/b.tar.gz", "d") == "a/b.tar (conflicted copy d).gz"


def test_replayer_mod_seed_changes_updates_only():
    trace = TraceGenerator(seed=4, snapshots=20, scale=0.02).generate()
    update_op = next((o for o in trace if o.op == "UPDATE"), None)
    if update_op is None:
        pytest.skip("seeded trace produced no updates at this size")
    def run(mod_seed):
        replayer = TraceReplayer(trace, mod_seed=mod_seed)
        out = {}
        for op in trace:
            content = replayer.materialize(op)
            if op is update_op:
                out["update"] = content
            if op.op == "ADD" and "add" not in out:
                out["add"] = content
        return out

    a, b = run(1), run(2)
    assert a["add"] == b["add"]  # ADD contents derive from the trace seed
    assert a["update"] != b["update"]  # edit bytes derive from mod_seed
