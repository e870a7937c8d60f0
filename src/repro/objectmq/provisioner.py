"""The Provisioner hotspot of the elasticity framework (§3.3, Fig 3).

A :class:`Provisioner` observes a server-object pool (queue metrics +
instance introspection) each control period and proposes how many
instances should exist.  :func:`decide` turns that proposal into the
period's :class:`ControlDecision` — the one routine the live
:class:`~repro.objectmq.supervisor.Supervisor` and the trace-driven
:class:`~repro.simulation.autoscale.AutoscaleSimulation` both enforce.
Third parties plug in policies by subclassing — the paper's predictive
and reactive policies live in :mod:`repro.elasticity`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Optional

from repro.objectmq.introspection import PoolObservation
from repro.objectmq.naming import parse_shard_oid
from repro.telemetry.control import (
    KIND_DECISION,
    KIND_SHUTDOWN,
    KIND_SPAWN,
    REASON_CRASH_REPAIR,
    REASON_SCALE_DOWN,
    REASON_SCALE_UP,
    DecisionJournal,
)


class Provisioner(ABC):
    """Extensible hook deciding the size of a server-object pool."""

    #: Human-readable policy name, used in experiment reports.
    name = "provisioner"

    #: Human-readable explanation of the latest proposal, written by
    #: ``propose`` and journaled by the Supervisor's decision log so every
    #: scaling action in a run is attributable ("why did the pool grow?").
    last_reason: str = ""

    #: Which reactive threshold fired on the latest proposal ("tau1",
    #: "tau2", or None).  Only threshold-based policies set this; the
    #: base value keeps journal code free of hasattr checks.
    last_threshold: Optional[str] = None

    @abstractmethod
    def propose(self, observation: PoolObservation) -> int:
        """Return the number of instances this policy wants right now."""

    def predicted_rate(self, timestamp: float) -> float:
        """λ_pred(t) the policy compares against; 0.0 without a predictor."""
        return 0.0


@dataclass
class ControlDecision:
    """One control period's verdict, and the journal of what enforces it.

    The caller owns the capacity actions (fleet RPCs live, the server
    pool in the DES) and reports each through :meth:`spawned` /
    :meth:`shut_down`, so action entries carry the same attribution and
    decision back-reference whoever took them.
    """

    observation: PoolObservation
    #: The policy's proposal clamped to ``[min_instances, max_instances]``.
    desired: int
    #: Instances that died since the previous period: how far the census
    #: fell below the target that period enforced (Fig 8(f)).
    crash_shortfall: int
    lam_pred: float
    reason: str
    journal: Optional[DecisionJournal]
    shard: Optional[int]
    seq: int = 0  # of the journaled decision entry

    def spawned(self, index: int, **extra: Any) -> None:
        """Journal this period's *index*-th spawn (0-based): the first
        ``crash_shortfall`` replace the dead, the rest are growth."""
        repair = index < self.crash_shortfall
        self._action(
            KIND_SPAWN, REASON_CRASH_REPAIR if repair else REASON_SCALE_UP, extra
        )

    def shut_down(self, **extra: Any) -> None:
        """Journal one instance shut down to reach ``desired``."""
        self._action(KIND_SHUTDOWN, REASON_SCALE_DOWN, extra)

    def _action(self, kind: str, reason: str, extra: dict) -> None:
        if self.journal is not None:
            self.journal.append(
                kind,
                self.observation.timestamp,
                oid=self.observation.oid,
                shard=self.shard,
                reason=reason,
                policy_reason=self.reason,
                decision_seq=self.seq,
                **extra,
            )


def decide(
    provisioner: Provisioner,
    observation: PoolObservation,
    min_instances: int,
    max_instances: int,
    enforced: Optional[int],
    journal: Optional[DecisionJournal],
    **extra: Any,
) -> ControlDecision:
    """The decision half of one control period (§3.3-3.4).

    Ask the policy, clamp its proposal, measure the census against
    *enforced* (the size the previous period commanded; None before the
    first) and journal the decision, *extra* fields included.
    """
    proposal = provisioner.propose(observation)
    census = observation.instance_count
    decision = ControlDecision(
        observation=observation,
        desired=min(max_instances, max(min_instances, proposal)),
        crash_shortfall=0 if enforced is None else max(0, enforced - census),
        lam_pred=provisioner.predicted_rate(observation.timestamp),
        reason=provisioner.last_reason
        or f"{provisioner.name} proposed {proposal}",
        journal=journal,
        shard=parse_shard_oid(observation.oid)[1],
    )
    if journal is not None:
        decision.seq = journal.append(
            KIND_DECISION,
            observation.timestamp,
            oid=observation.oid,
            shard=decision.shard,
            lam_obs=observation.arrival_rate,
            lam_pred=decision.lam_pred,
            interarrival_variance=observation.interarrival_variance,
            queue_depth=observation.queue_depth,
            census=census,
            census_shortfall=decision.crash_shortfall,
            policy=provisioner.name,
            proposal=proposal,
            desired=decision.desired,
            threshold=provisioner.last_threshold,
            reason=decision.reason,
            **extra,
        ).seq
    return decision


class FixedProvisioner(Provisioner):
    """Always propose a constant pool size (the no-elasticity baseline)."""

    name = "fixed"

    def __init__(self, instances: int = 1):
        if instances < 0:
            raise ValueError("instances must be >= 0")
        self.instances = instances

    def propose(self, observation: PoolObservation) -> int:
        self.last_reason = f"fixed target of {self.instances} instance(s)"
        return self.instances


class UtilizationProvisioner(Provisioner):
    """Naive CPU/utilization-threshold scaling — the coarse-grained cloud
    baseline the paper argues against (§1, §4.3).

    Scales up by one when offered utilization exceeds *high*, down by one
    when it falls below *low*.  Included as an ablation baseline: it reacts
    only after saturation is already observable and one step at a time, so
    it lags fast diurnal ramps.
    """

    name = "utilization-threshold"

    def __init__(self, high: float = 0.8, low: float = 0.3):
        if not 0 <= low < high:
            raise ValueError("need 0 <= low < high")
        self.high = high
        self.low = low

    def propose(self, observation: PoolObservation) -> int:
        current = max(1, observation.instance_count)
        utilization = observation.utilization
        if utilization > self.high:
            self.last_reason = (
                f"utilization {utilization:.2f} > high {self.high:.2f}: "
                f"add one instance"
            )
            return current + 1
        if utilization < self.low and current > 1:
            self.last_reason = (
                f"utilization {utilization:.2f} < low {self.low:.2f}: "
                f"release one instance"
            )
            return current - 1
        self.last_reason = (
            f"utilization {utilization:.2f} within "
            f"[{self.low:.2f}, {self.high:.2f}]: hold at {current}"
        )
        return current


class QueueDepthProvisioner(Provisioner):
    """Ad-hoc policy on queue backlog — the paper's "observe that messages
    are not being processed at the adequate speed" example (§3.3).

    Scales so that the ready backlog per instance stays below
    ``max_backlog_per_instance``; shrinks when the pool could absorb the
    backlog with fewer instances at ``shrink_fill`` occupancy.  Purely
    queue-driven: no model of service times, no history — the simplest
    useful demonstration of the Provisioner hotspot.
    """

    name = "queue-depth"

    def __init__(self, max_backlog_per_instance: int = 10, shrink_fill: float = 0.3):
        if max_backlog_per_instance < 1:
            raise ValueError("max_backlog_per_instance must be >= 1")
        if not 0 < shrink_fill < 1:
            raise ValueError("shrink_fill must be in (0, 1)")
        self.max_backlog_per_instance = max_backlog_per_instance
        self.shrink_fill = shrink_fill

    def propose(self, observation: PoolObservation) -> int:
        current = max(1, observation.instance_count)
        depth = observation.queue_depth
        needed = -(-depth // self.max_backlog_per_instance)  # ceil
        if needed > current:
            self.last_reason = (
                f"backlog {depth} needs {needed} instance(s) at "
                f"{self.max_backlog_per_instance}/instance"
            )
            return needed
        comfortable = -(
            -depth
            // max(1, int(self.max_backlog_per_instance * self.shrink_fill))
        )
        if depth == 0 and not any(s.busy for s in observation.instances):
            # Fully idle pool: release one instance per period.
            self.last_reason = "queue empty and pool idle: release one instance"
            return max(1, current - 1)
        proposal = max(1, min(current, max(comfortable, 1)))
        self.last_reason = (
            f"backlog {depth} absorbable by {proposal} instance(s) at "
            f"{self.shrink_fill:.0%} fill"
        )
        return proposal

