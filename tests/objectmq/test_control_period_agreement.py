"""The live Supervisor and the DES take the same control-period decisions.

Both enforce :func:`repro.objectmq.provisioner.decide`; this drives one
scripted observation sequence through ``Supervisor.step`` (over a fake
fleet) and through ``AutoscaleSimulation.control_period`` and requires
the journals to agree field by field.  Only what is genuinely live may
differ: ``alive_brokers`` on decisions, ``instance_id`` on actions, and
— when a spawn fails midway — the live side stops where the DES, whose
pool cannot refuse capacity, journals the full growth.
"""

from __future__ import annotations

from repro.elasticity import PredictiveProvisioner, ReactiveProvisioner
from repro.objectmq import Supervisor
from repro.objectmq.introspection import ObjectInfoSnapshot, PoolObservation
from repro.simulation.autoscale import AutoscaleSimulation, SimConfig
from repro.telemetry.control import (
    KIND_DECISION,
    REASON_CRASH_REPAIR,
    REASON_SCALE_DOWN,
    REASON_SCALE_UP,
    DecisionJournal,
)

OID = "worker.shard.1"
MIN_INSTANCES, MAX_INSTANCES = 2, 8

#: (census, λ_obs) per period against a predictor expecting 40 req/s:
#: growth, shrink to the floor, a census below the enforced target,
#: growth past the ceiling (the live fleet fails its third spawn), the
#: shortfall that failure leaves behind, and a quiet period.
SCRIPT = [(2, 120.0), (7, 10.0), (1, 60.0), (4, 200.0), (6, 200.0), (8, 40.0)]
FAILING_SPAWN_CALL = 5 + 3 + 3  # third spawn of the fourth period


class ScriptedFleet:
    """Answers the Supervisor's fleet RPCs; one scheduled spawn fails."""

    def __init__(self):
        self.spawn_calls = 0

    def ping(self):
        return ["broker-a", "broker-b"]

    def spawn(self, oid):
        self.spawn_calls += 1
        if self.spawn_calls == FAILING_SPAWN_CALL:
            raise RuntimeError("no capacity on any broker")
        return f"instance-{self.spawn_calls}"

    def shutdown(self, oid, instance_id):
        return [True]


def observations():
    for period, (census, lam_obs) in enumerate(SCRIPT):
        yield PoolObservation(
            oid=OID,
            timestamp=100.0 + 5.0 * period,
            instance_count=census,
            queue_depth=3 * period,
            arrival_rate=lam_obs,
            interarrival_variance=1.0 / lam_obs**2,
            mean_service_time=0.05,
            service_time_variance=2e-4,
            instances=[
                ObjectInfoSnapshot(
                    oid=OID,
                    instance_id=f"seen-{period}-{n}",
                    broker_id="broker-a",
                    processed=10,
                    errors=0,
                    busy=False,
                    mean_service_time=0.05,
                    service_time_variance=2e-4,
                    last_invocation_at=float(n),
                    uptime=1.0,
                )
                for n in range(census)
            ],
        )


def make_provisioner():
    predictive = PredictiveProvisioner()
    predictive.load_history([40.0] * 200)
    return ReactiveProvisioner(predictive=predictive)


def periods(journal, drop):
    """[(decision fields, [action fields])] with journal-local ids checked."""
    out = []
    for event in journal.events():
        fields = {k: v for k, v in event.to_dict().items() if k not in drop}
        seq = fields.pop("seq")
        if event.kind == KIND_DECISION:
            out.append((fields, []))
            decision_seq = seq
        else:
            assert fields.pop("decision_seq") == decision_seq
            out[-1][1].append(fields)
    return out


def test_supervisor_and_des_journal_the_same_control_periods(omq):
    live_journal, des_journal = DecisionJournal(), DecisionJournal()

    supervisor = Supervisor(
        omq,
        OID,
        make_provisioner(),
        min_instances=MIN_INSTANCES,
        max_instances=MAX_INSTANCES,
        journal=live_journal,
    )
    supervisor.fleet = ScriptedFleet()
    script = observations()
    supervisor.observe = lambda now=None: next(script)
    records = [supervisor.step() for _ in SCRIPT]

    simulation = AutoscaleSimulation(
        [],
        make_provisioner(),
        config=SimConfig(min_instances=MIN_INSTANCES, max_instances=MAX_INSTANCES),
        journal=des_journal,
        oid=OID,
    )
    enforced = SCRIPT[0][0]  # run() starts from the pool's own capacity
    for observation in observations():
        enforced = simulation.control_period(observation, enforced).desired

    live = periods(live_journal, drop={"alive_brokers", "instance_id"})
    des = periods(des_journal, drop=set())
    assert len(live) == len(des) == len(SCRIPT)
    for period, ((live_decision, live_actions), (des_decision, des_actions)) in (
        enumerate(zip(live, des))
    ):
        assert live_decision == des_decision, f"period {period}"
        if period == 3:
            assert len(live_actions) == 2 and len(des_actions) == 4
            des_actions = des_actions[:2]
        assert live_actions == des_actions, f"period {period}"

    # The script exercised what it claims to (guards against a vacuous pass).
    assert [d["desired"] for d, _ in des] == [7, 2, 4, 8, 8, 8]
    assert [d["census_shortfall"] for d, _ in des] == [0, 0, 1, 0, 2, 0]
    assert [d["threshold"] for d, _ in des] == [
        "tau1", "tau2", "tau1", "tau1", "tau1", None
    ]
    assert all(d["lam_pred"] == 40.0 and d["shard"] == 1 for d, _ in des)
    assert [[a["reason"] for a in actions] for _, actions in des] == [
        [REASON_SCALE_UP] * 5,
        [REASON_SCALE_DOWN] * 5,
        [REASON_CRASH_REPAIR, REASON_SCALE_UP, REASON_SCALE_UP],
        [REASON_SCALE_UP] * 4,
        [REASON_CRASH_REPAIR] * 2,
        [],
    ]
    assert [(r.spawned, r.removed) for r in records] == [
        (5, 0), (0, 5), (3, 0), (2, 0), (2, 0), (0, 0)
    ]
