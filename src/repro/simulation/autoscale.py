"""Trace-driven auto-scaling simulation (the Fig 8 experiments).

Wires together:

* a per-second arrival trace (normally from
  :class:`~repro.workload.ubuntuone.UbuntuOneTraceGenerator`),
* the G/G/c :class:`~repro.simulation.server.ServerPool`, and
* any :class:`~repro.objectmq.provisioner.Provisioner` (fixed,
  utilization-threshold, predictive, reactive, or combined),

with a control loop that observes the arrival rate every
``control_interval`` simulated seconds, takes the period's decision with
the live Supervisor's own :func:`~repro.objectmq.provisioner.decide`, and
applies it to the pool.  The result records everything the paper plots:
instance counts over time (Fig 8a/8d), response times (Fig 8b/8e), and
observed vs predicted arrival rates (Fig 8c).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from repro.elasticity.ggone import PAPER_PARAMETERS, SlaParameters
from repro.objectmq.introspection import PoolObservation
from repro.objectmq.naming import shard_oid
from repro.objectmq.provisioner import ControlDecision, Provisioner, decide
from repro.simulation.des import EventLoop
from repro.simulation.metrics import boxplot_stats, bucket_by_time, fraction_above
from repro.simulation.server import (
    ServerPool,
    ServiceTimeDistribution,
    poisson_arrival_times,
)
from repro.telemetry.control import DecisionJournal


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one auto-scaling simulation run."""

    params: SlaParameters = PAPER_PARAMETERS
    #: Supervisor control period, simulated seconds.
    control_interval: float = 5.0
    #: Window over which λ_obs is measured, simulated seconds.
    observation_window: float = 30.0
    min_instances: int = 1
    max_instances: int = 64
    #: Instance start-up time (produces the paper's scaling spikes).
    spawn_delay: float = 1.0
    #: Added to simulation time before it reaches the provisioner, so a
    #: run can represent e.g. "day 8, hour 20" of the trace.
    time_origin: float = 0.0
    seed: int = 1


@dataclass
class ControlRecord:
    """One control-period decision, for the Fig 8 time series."""

    timestamp: float
    lam_obs: float
    lam_pred: float
    capacity_before: int
    desired: int
    queue_depth: int


@dataclass
class SimResult:
    """Everything a Fig 8 plot needs."""

    config: SimConfig
    control_records: List[ControlRecord] = field(default_factory=list)
    #: (completion time, response time) samples.
    response_samples: List[Tuple[float, float]] = field(default_factory=list)
    total_arrivals: int = 0
    total_completed: int = 0
    #: Structured control-plane log of the run (None when not requested).
    journal: Optional[DecisionJournal] = None

    def capacity_series(self) -> List[Tuple[float, int]]:
        return [(r.timestamp, r.capacity_before) for r in self.control_records]

    def max_capacity(self) -> int:
        return max((r.capacity_before for r in self.control_records), default=0)

    def response_times(self) -> List[float]:
        return [rt for _t, rt in self.response_samples]

    def sla_violation_fraction(self, sla: Optional[float] = None) -> float:
        sla = self.config.params.d if sla is None else sla
        return fraction_above(self.response_times(), sla)

    def response_percentile_series(
        self, bucket: float, fraction: float = 0.95
    ) -> List[Tuple[float, float]]:
        """Per-bucket response-time percentile (the Fig 8b/8e series)."""
        from repro.simulation.metrics import percentile

        grouped = bucket_by_time(self.response_samples, bucket)
        return [
            (index * bucket, percentile(values, fraction))
            for index, values in sorted(grouped.items())
        ]

    def boxplot(self):
        return boxplot_stats(self.response_times())


class AutoscaleSimulation:
    """One trace-driven run of the elastic SyncService pool."""

    def __init__(
        self,
        arrivals_per_second: List[int],
        provisioner: Provisioner,
        config: Optional[SimConfig] = None,
        journal: Optional[DecisionJournal] = None,
        oid: str = "syncservice",
        on_control_period: Optional[Callable[[PoolObservation, int], None]] = None,
    ):
        self.arrivals = list(arrivals_per_second)
        self.provisioner = provisioner
        self.config = config if config is not None else SimConfig()
        #: When set, the control loop journals every decision and
        #: capacity action through the routine the live Supervisor uses.
        self.journal = journal
        #: Pool identity stamped on observations and journal entries; a
        #: partitioned oid (``syncservice.shard.2``) also yields a shard
        #: field on every entry.
        self.oid = oid
        #: Optional per-control-period hook ``(observation, desired)``,
        #: invoked after the decision is journaled and before capacity is
        #: applied.  This is the scrape point the soak harness hangs
        #: metrics-registry readings and SLO evaluation off — the DES
        #: equivalent of a Supervisor heartbeat callback.
        self.on_control_period = on_control_period

    # -- observation ---------------------------------------------------------------

    def _window_stats(self, now: float) -> Tuple[float, float]:
        """(λ_obs, σ_a²) over the trailing observation window."""
        window = self.config.observation_window
        start = max(0, int(now - window))
        end = max(start + 1, int(now))
        counts = self.arrivals[start:end]
        if not counts:
            return 0.0, 0.0
        lam = sum(counts) / len(counts)
        if lam <= 0:
            return 0.0, 0.0
        mean = lam
        var_counts = sum((c - mean) ** 2 for c in counts) / len(counts)
        mean_interarrival = 1.0 / lam
        sigma_a2 = var_counts * mean_interarrival**3  # window width = 1s
        return lam, sigma_a2

    def control_period(
        self, observation: PoolObservation, enforced: int
    ) -> ControlDecision:
        """Decide one control period; the pool resizes in one step, so the
        actions journaled are the census-to-desired difference."""
        decision = decide(
            self.provisioner,
            observation,
            self.config.min_instances,
            self.config.max_instances,
            enforced,
            self.journal,
        )
        census = observation.instance_count
        for index in range(decision.desired - census):
            decision.spawned(index)
        for _ in range(census - decision.desired):
            decision.shut_down()
        return decision

    # -- run --------------------------------------------------------------------------

    def run(self) -> SimResult:
        config = self.config
        loop = EventLoop()
        rng = random.Random(config.seed)
        service = ServiceTimeDistribution(
            mean=config.params.s,
            variance=config.params.sigma_b2,
            rng=random.Random(rng.getrandbits(64)),
        )
        pool = ServerPool(
            loop,
            service,
            initial_capacity=config.min_instances,
            spawn_delay=config.spawn_delay,
        )
        result = SimResult(config=config, journal=self.journal)

        for when in poisson_arrival_times(
            self.arrivals, rng=random.Random(rng.getrandbits(64))
        ):
            loop.schedule_at(when, pool.arrive)

        duration = float(len(self.arrivals))
        # Pool size commanded by the previous control period.
        enforced = [pool.capacity]

        def control_step() -> None:
            now = loop.now
            timestamp = config.time_origin + now
            lam_obs, sigma_a2 = self._window_stats(now)
            census = pool.capacity
            observation = PoolObservation(
                oid=self.oid,
                timestamp=timestamp,
                instance_count=census,
                queue_depth=pool.queue_depth,
                arrival_rate=lam_obs,
                interarrival_variance=sigma_a2,
                mean_service_time=config.params.s,
                service_time_variance=config.params.sigma_b2,
            )
            decision = self.control_period(observation, enforced[0])
            desired = decision.desired
            result.control_records.append(
                ControlRecord(
                    timestamp=now,
                    lam_obs=lam_obs,
                    lam_pred=decision.lam_pred,
                    capacity_before=census,
                    desired=desired,
                    queue_depth=pool.queue_depth,
                )
            )
            if self.on_control_period is not None:
                self.on_control_period(observation, desired)
            if desired != pool.capacity:
                pool.set_capacity(desired)
            enforced[0] = desired
            if now + config.control_interval <= duration:
                loop.schedule(config.control_interval, control_step)

        loop.schedule_at(0.0, control_step)
        # Let in-flight work finish after the trace ends (small grace).
        loop.run_until(duration + 30.0)

        result.response_samples = pool.response_times()
        result.total_arrivals = pool.total_arrivals
        result.total_completed = pool.total_completed
        return result


def split_arrivals(
    arrivals_per_second: List[int], shards: int, seed: int = 1
) -> List[List[int]]:
    """Split a per-second arrival trace across *shards* hash partitions.

    Workspace hashing assigns each arrival to a shard independently and
    uniformly, so each second's count is split multinomially (every
    arrival draws its shard).  The split preserves totals exactly:
    summing the returned traces recovers the input.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    rng = random.Random(seed)
    traces: List[List[int]] = [[] for _ in range(shards)]
    for count in arrivals_per_second:
        second = [0] * shards
        for _ in range(count):
            second[rng.randrange(shards)] += 1
        for shard, shard_count in enumerate(second):
            traces[shard].append(shard_count)
    return traces


@dataclass
class ShardedSimResult:
    """Per-shard results of one partitioned auto-scaling run."""

    shard_results: List[SimResult]
    journal: Optional[DecisionJournal] = None

    @property
    def total_arrivals(self) -> int:
        return sum(r.total_arrivals for r in self.shard_results)

    @property
    def total_completed(self) -> int:
        return sum(r.total_completed for r in self.shard_results)

    def total_capacity_series(self) -> List[Tuple[float, int]]:
        """Fleet-wide capacity over time (sum across shards per period)."""
        merged: dict = {}
        for result in self.shard_results:
            for timestamp, capacity in result.capacity_series():
                merged[timestamp] = merged.get(timestamp, 0) + capacity
        return sorted(merged.items())

    def response_times(self) -> List[float]:
        times: List[float] = []
        for result in self.shard_results:
            times.extend(result.response_times())
        return times


class ShardedAutoscaleSimulation:
    """Trace-driven run of N independently supervised shard pools.

    The aggregate trace is hash-split across shards
    (:func:`split_arrivals`); each shard gets its own server pool, its
    own provisioner instance (from *provisioner_factory*) and its own
    control loop, exactly mirroring the live
    :class:`~repro.objectmq.supervisor.ShardedSupervisor`.  A shared
    journal receives every shard's entries, distinguishable by their
    ``shard`` field.
    """

    def __init__(
        self,
        arrivals_per_second: List[int],
        provisioner_factory: Callable[[], Provisioner],
        shards: int,
        config: Optional[SimConfig] = None,
        journal: Optional[DecisionJournal] = None,
        oid: str = "syncservice",
        on_control_period: Optional[Callable[[PoolObservation, int], None]] = None,
    ):
        config = config if config is not None else SimConfig()
        traces = split_arrivals(arrivals_per_second, shards, seed=config.seed)
        self.journal = journal
        self.simulations = [
            AutoscaleSimulation(
                traces[shard],
                provisioner_factory(),
                # Distinct seeds keep shard service processes independent.
                config=replace(config, seed=config.seed + shard),
                journal=journal,
                oid=shard_oid(oid, shard),
                on_control_period=on_control_period,
            )
            for shard in range(shards)
        ]

    def run(self) -> ShardedSimResult:
        return ShardedSimResult(
            shard_results=[simulation.run() for simulation in self.simulations],
            journal=self.journal,
        )
