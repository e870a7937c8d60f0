"""DecisionJournal + component health: the control-plane observability core.

Health has no registry of its own: a :class:`MetricsRegistry` source whose
read reports ``up`` is a component of :meth:`MetricsRegistry.health`.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.telemetry.control import (
    KIND_DECISION,
    KIND_SPAWN,
    REASON_CRASH_REPAIR,
    REASON_SCALE_UP,
    DecisionJournal,
    JournalEvent,
    load_journal_lines,
)
from repro.telemetry.registry import MetricsRegistry


class TestDecisionJournal:
    def test_append_assigns_monotonic_seq(self):
        journal = DecisionJournal()
        first = journal.append(KIND_DECISION, 1.0, reason="a")
        second = journal.append(KIND_SPAWN, 2.0, reason="b")
        assert first.seq == 1
        assert second.seq == 2
        assert len(journal) == 2

    def test_to_dict_flattens_payload(self):
        event = JournalEvent(
            kind=KIND_DECISION, timestamp=5.0, seq=3, data={"lam_obs": 7.5}
        )
        flat = event.to_dict()
        assert flat == {
            "kind": "decision",
            "timestamp": 5.0,
            "seq": 3,
            "lam_obs": 7.5,
        }
        assert JournalEvent.from_dict(flat) == event

    def test_kind_filters(self):
        journal = DecisionJournal()
        journal.append(KIND_DECISION, 1.0)
        journal.append(KIND_SPAWN, 1.0, reason=REASON_SCALE_UP)
        journal.append("shutdown", 2.0, reason="scale-down")
        journal.append("alert-fired", 3.0, rule="r")
        assert len(journal.decisions()) == 1
        assert len(journal.actions()) == 2
        assert len(journal.alerts()) == 1
        assert [e.kind for e in journal.tail(2)] == ["shutdown", "alert-fired"]
        # Asking for none gets none, not the whole journal.
        assert journal.tail(0) == []
        assert journal.tail(-2) == []
        assert journal.tail(0, kind=KIND_SPAWN) == []
        assert len(journal.tail(99)) == 4

    def test_ring_drops_oldest(self):
        journal = DecisionJournal(capacity=3)
        for i in range(5):
            journal.append(KIND_DECISION, float(i))
        assert len(journal) == 3
        assert journal.dropped == 2
        assert [e.timestamp for e in journal.events()] == [2.0, 3.0, 4.0]
        # seq keeps counting even though old events fell off.
        assert journal.events()[-1].seq == 5

    def test_jsonl_roundtrip(self):
        journal = DecisionJournal()
        journal.append(KIND_DECISION, 1.0, reason="why", census=3)
        journal.append(
            KIND_SPAWN, 1.0, reason=REASON_CRASH_REPAIR, decision_seq=1
        )
        loaded = load_journal_lines(journal.to_jsonl().splitlines())
        assert loaded == journal.events()
        spawn = loaded[1]
        assert spawn.kind == KIND_SPAWN and spawn.seq == 2
        assert spawn.data["reason"] == REASON_CRASH_REPAIR
        assert spawn.data["decision_seq"] == 1

    def test_file_sink_appends_every_event(self, tmp_path):
        path = str(tmp_path / "sink.jsonl")
        journal = DecisionJournal(path=path)
        journal.append(KIND_DECISION, 1.0, reason="r1")
        journal.append(KIND_SPAWN, 2.0, reason=REASON_SCALE_UP)
        journal.close()

        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert [l["kind"] for l in lines] == ["decision", "spawn"]
        events = load_journal_lines(open(path, encoding="utf-8"))
        assert events[1].data["reason"] == REASON_SCALE_UP


class _Component:
    def __init__(self, ok=True):
        self.ok = ok

    def probe(self):
        return {"up": float(self.ok), "detail_key": 42}


class TestHealthRegistry:
    """The health view of :class:`MetricsRegistry` sources."""

    def test_probe_pass_and_fail(self):
        registry = MetricsRegistry()
        good = _Component(ok=True)
        bad = _Component(ok=False)
        registry.register_source("good", good, _Component.probe)
        registry.register_source("bad", bad, _Component.probe, shard=1)
        registry.register_source("counts", good, lambda owner: {"n": 3})

        results = {c["component"]: c for c in registry.health()}
        # Only sources that report ``up`` are components.
        assert set(results) == {"good", 'bad{shard="1"}'}
        assert results["good"]["ok"] and results["good"]["detail"] == {"detail_key": 42}
        assert not results['bad{shard="1"}']["ok"]
        assert registry.snapshot()['bad_up{shard="1"}'] == 0.0

    def test_raising_probe_reports_failure_not_crash(self):
        registry = MetricsRegistry()
        component = _Component()
        registry.register_source(
            "boom", component, lambda owner: (_ for _ in ()).throw(RuntimeError("x"))
        )
        (result,) = registry.health()
        assert not result["ok"]
        assert "RuntimeError" in result["detail"]["error"]
        assert registry.snapshot() == {"boom_up": 0.0}

    def test_dead_owner_pruned(self):
        registry = MetricsRegistry()
        component = _Component()
        registry.register_source("ephemeral", component, _Component.probe)
        assert len(registry.health()) == 1

        del component
        gc.collect()
        assert registry.health() == []
        # and it stays pruned (no tombstone accumulates)
        assert registry.source_count() == 0

    def test_unregister(self):
        registry = MetricsRegistry()
        component = _Component()
        token = registry.register_source("c", component, _Component.probe)
        registry.unregister_source(token)
        assert registry.health() == []


class TestSinkRotation:
    """The size-capped JSONL writer: long soaks cannot fill the disk."""

    def test_unbounded_sink_unchanged(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = DecisionJournal(path=str(path))
        for i in range(10):
            journal.append(KIND_DECISION, float(i), census=i)
        journal.close()
        assert len(path.read_text().splitlines()) == 10
        assert journal.rotations == 0

    def test_capped_sink_stays_within_cap_and_keeps_newest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        cap = 64 * 1024
        journal = DecisionJournal(capacity=1_000, path=str(path), max_sink_bytes=cap)
        total = 100_000  # a 10^5-control-period soak
        for i in range(total):
            journal.append(KIND_DECISION, float(i), census=i, policy="reactive")
        journal.close()

        size = path.stat().st_size
        assert size <= cap, f"sink grew to {size} B past the {cap} B cap"
        assert journal.rotations > 0
        # Rotation trims to half the cap: amortized O(1) per append, not
        # a full rewrite every line.
        assert journal.rotations < total // 100

        with open(path, "r", encoding="utf-8") as fh:
            events = load_journal_lines(fh)
        assert events, "rotation must keep a tail, not truncate to nothing"
        # The newest entry survives every rotation, and the kept tail is
        # contiguous (no holes): exactly the newest lines that fit.
        assert events[-1].seq == total
        assert [e.seq for e in events] == list(
            range(events[0].seq, total + 1)
        )

    def test_rotated_tail_round_trips_through_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = DecisionJournal(capacity=50, path=str(path), max_sink_bytes=2048)
        for i in range(1_000):
            journal.append(KIND_SPAWN, float(i), reason=REASON_SCALE_UP)
        journal.close()
        with open(path, encoding="utf-8") as fh:
            loaded = load_journal_lines(fh)
        assert len(loaded) > 0
        # The rotated tail ends at the last event appended.
        assert loaded[-1].seq == 1_000

    def test_sink_bytes_tracks_file_size(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = DecisionJournal(path=str(path), max_sink_bytes=10_000)
        for i in range(20):
            journal.append(KIND_DECISION, float(i))
        assert journal.sink_bytes == path.stat().st_size
        journal.close()

    def test_reopened_sink_resumes_byte_accounting(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = DecisionJournal(path=str(path))
        for i in range(5):
            first.append(KIND_DECISION, float(i))
        first.close()
        second = DecisionJournal(path=str(path), max_sink_bytes=100_000)
        assert second.sink_bytes == path.stat().st_size
        second.close()

    def test_rejects_non_positive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            DecisionJournal(path=str(tmp_path / "j.jsonl"), max_sink_bytes=0)

    def test_oversized_single_event_still_lands(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = DecisionJournal(path=str(path), max_sink_bytes=64)
        journal.append(KIND_DECISION, 1.0, reason="x" * 200)
        journal.close()
        with open(path, "r", encoding="utf-8") as fh:
            events = load_journal_lines(fh)
        assert len(events) == 1 and events[0].data["reason"] == "x" * 200
