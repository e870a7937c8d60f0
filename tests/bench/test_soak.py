"""The soak harness: scripted phases, operational contract, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.soak import (
    DEFAULT_PHASES,
    PHASE_DIURNAL,
    PHASE_FLASH,
    SoakConfig,
    SoakHarness,
    SoakPhaseRecord,
    SoakResult,
    SoakVerificationError,
    run_soak,
)
from repro.telemetry.control import (
    KIND_DECISION,
    KIND_SHUTDOWN,
    KIND_SPAWN,
    DecisionJournal,
    load_journal_lines,
)

#: Small enough for CI, large enough that the provisioner actually
#: scales (the smoke preset's heavier commit keeps load realistic).
TINY = dict(
    users=20_000,
    seconds_per_day=120,
    flash_seconds=60,
)


def tiny_config(**overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return SoakConfig.smoke(**merged)


@pytest.fixture(scope="module")
def soak_result():
    """One shared two-shard run for the read-only assertions."""
    return run_soak(tiny_config(shards=2))


class TestConfig:
    def test_smoke_preset_is_reduced_scale(self):
        config = SoakConfig.smoke()
        assert config.users == 100_000
        assert config.shards == 2
        assert config.phases == DEFAULT_PHASES
        # Reduced arrival scale, proportionally heavier commit.
        assert config.service_time_s > SoakConfig().service_time_s

    def test_rate_scale_tracks_users(self):
        assert SoakConfig(users=1_000_000).rate_scale == 1.0
        assert SoakConfig(users=100_000).rate_scale == pytest.approx(0.1)

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            SoakConfig(phases=("diurnal-ramp", "chaos"))

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shard"):
            SoakConfig(shards=0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(users=0), "users"),
            (dict(seconds_per_day=0), "seconds_per_day"),
            (dict(phases=()), "phase"),
        ],
    )
    def test_rejects_out_of_range(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            SoakConfig(**overrides)


class TestRun:
    def test_runs_every_phase_in_order(self, soak_result):
        assert [r.name for r in soak_result.records] == list(DEFAULT_PHASES)
        for record in soak_result.records:
            assert record.arrivals > 0
            assert record.completed > 0
            assert record.commits_per_sec > 0
            assert record.scrapes > 0

    def test_healthy_run_verifies(self, soak_result):
        soak_result.verify()
        assert soak_result.alert_flap_count() == 0
        assert soak_result.unjournaled_action_count() == 0

    def test_provisioner_actually_scales(self, soak_result):
        total_actions = sum(r.spawns + r.shutdowns for r in soak_result.records)
        assert total_actions > 0, "a soak that never scales observes nothing"

    def test_every_action_backrefs_a_decision(self, soak_result):
        journal = soak_result.journal
        actions = journal.events(KIND_SPAWN) + journal.events(KIND_SHUTDOWN)
        assert actions
        decision_seqs = {e.seq for e in journal.events(KIND_DECISION)}
        for action in actions:
            assert action.data["decision_seq"] in decision_seqs

    def test_phase_subset_runs_only_that_phase(self):
        result = run_soak(tiny_config(shards=1, phases=(PHASE_FLASH,)))
        assert [r.name for r in result.records] == [PHASE_FLASH]

    def test_idle_phase_records_absent_percentiles(self):
        # One registered user: arrival rates ~1e-4/s, so a short phase
        # sees no commits and the percentiles degrade to None, not a
        # crash (the safe_percentile contract).  seed=2015 is a draw
        # with zero arrivals; deterministic, so not flaky.
        result = run_soak(
            tiny_config(users=1, shards=1, seed=2015, phases=(PHASE_FLASH,))
        )
        (record,) = result.records
        assert record.completed == 0
        assert record.p50_latency_s is None
        assert record.p99_latency_s is None

    def test_external_journal_with_sink_receives_run(self, tmp_path):
        path = str(tmp_path / "soak.jsonl")
        journal = DecisionJournal(path=path, max_sink_bytes=256 * 1024)
        harness = SoakHarness(
            tiny_config(shards=1, phases=(PHASE_DIURNAL,)), journal=journal
        )
        result = harness.run()
        journal.close()
        assert result.journal is journal
        with open(path, encoding="utf-8") as fh:
            loaded = load_journal_lines(fh)
        assert any(event.kind == KIND_DECISION for event in loaded)


class TestDeterministicReplay:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_same_seed_and_config_replays_identically(self, shards):
        config = tiny_config(shards=shards)
        first = run_soak(config)
        second = run_soak(config)

        # Identical per-phase commit counts...
        assert [r.completed for r in first.records] == [
            r.completed for r in second.records
        ]
        assert [r.arrivals for r in first.records] == [
            r.arrivals for r in second.records
        ]
        # ...identical phase records (modulo wall-clock readings)...
        def simulated(result):
            return [
                {
                    name: value
                    for name, value in dataclasses.asdict(record).items()
                    if not name.startswith("wall_")
                }
                for record in result.records
            ]

        assert simulated(first) == simulated(second)
        # ...and an identical journal decision sequence.
        sequence_a = [
            (e.kind, e.timestamp, e.data.get("desired"), e.data.get("shard"))
            for e in first.journal.events()
            if e.kind in (KIND_DECISION, KIND_SPAWN, KIND_SHUTDOWN)
        ]
        sequence_b = [
            (e.kind, e.timestamp, e.data.get("desired"), e.data.get("shard"))
            for e in second.journal.events()
            if e.kind in (KIND_DECISION, KIND_SPAWN, KIND_SHUTDOWN)
        ]
        assert sequence_a == sequence_b

    def test_different_seed_diverges(self):
        config = tiny_config(shards=1)
        reseeded = tiny_config(shards=1, seed=config.seed + 1)
        assert [r.arrivals for r in run_soak(config).records] != [
            r.arrivals for r in run_soak(reseeded).records
        ]


#: The smoke preset's per-phase figures, unchanged since the soak first
#: ran: ``(phase, arrivals = completed, decisions, spawns, shutdowns,
#: max pool, max queue, alerts fired, p50 s, p99 s)``.  The
#: DES is deterministic, so these hold to the digit on every machine and
#: Python version; a deliberate control-plane change re-pins them in the
#: same change that moves them.
PINNED_SMOKE_PHASES = [
    (PHASE_DIURNAL, 4923, 290, 22, 21, 14, 2, 0,
     0.3502928494456228, 0.7936790248223313),
    (PHASE_FLASH, 3726, 74, 35, 31, 30, 14, 0,
     0.3510665665151649, 1.0292938309232262),
]


def test_smoke_preset_reproduces_its_recorded_figures():
    result = run_soak(SoakConfig.smoke())
    result.verify()
    measured = [
        (r.name, r.arrivals, r.decisions, r.spawns, r.shutdowns,
         r.max_pool_size, r.max_queue_depth, r.alerts_fired)
        for r in result.records
    ]
    assert measured == [pin[:-2] for pin in PINNED_SMOKE_PHASES]
    for record, pin in zip(result.records, PINNED_SMOKE_PHASES):
        assert record.completed == record.arrivals
        assert record.p50_latency_s == pytest.approx(pin[-2], rel=1e-9)
        assert record.p99_latency_s == pytest.approx(pin[-1], rel=1e-9)


class TestVerify:
    def _result_with(self, **overrides):
        record = SoakPhaseRecord(
            name=PHASE_DIURNAL, sim_seconds=10.0, arrivals=1, completed=1,
            commits_per_sec=0.1, p50_latency_s=0.1, p99_latency_s=0.1,
            max_queue_depth=0, mean_pool_size=1.0, max_pool_size=1,
            decisions=1, spawns=0, shutdowns=0, alerts_fired=0,
            alerts_resolved=0, alert_flaps=0, unjournaled_actions=0,
            scrapes=1,
        )
        for name, value in overrides.items():
            setattr(record, name, value)
        return SoakResult(config=tiny_config(), records=[record])

    def test_flap_fails(self):
        with pytest.raises(SoakVerificationError, match="flap"):
            self._result_with(alert_flaps=1).verify()

    def test_unjournaled_action_fails(self):
        with pytest.raises(SoakVerificationError, match="not journaled"):
            self._result_with(unjournaled_actions=2).verify()

    def test_clean_result_passes(self):
        self._result_with().verify()
