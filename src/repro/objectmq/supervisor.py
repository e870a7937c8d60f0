"""Supervisor: the Master entity enforcing provisioning policies (§3.3-3.4).

Each control period the Supervisor:

1. polls the RemoteBroker fleet with @MultiMethod calls (``ping``,
   ``get_object_info``) — this doubles as a failure detector: a crashed
   instance simply stops appearing in the census;
2. samples the shared request queue to measure the observed arrival rate
   λ_obs and interarrival variance;
3. hands the resulting :class:`PoolObservation` to
   :func:`~repro.objectmq.provisioner.decide`, the decision half of the
   period, which the trace-driven simulation enforces too;
4. reconciles reality with the decision by calling ``spawn``/``shutdown``
   on RemoteBrokers, reporting each action back for the journal.

Crash repair falls out of step 4: when an instance dies, the census count
drops below the enforced target and the Supervisor spawns a replacement —
the behaviour measured in the paper's Fig 8(f).
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.objectmq.broker import Broker
from repro.objectmq.introspection import ObjectInfoSnapshot, PoolObservation
from repro.objectmq.naming import parse_shard_oid, shard_oid
from repro.objectmq.provisioner import ControlDecision, Provisioner, decide
from repro.objectmq.remote_broker import REMOTE_BROKER_OID, RemoteBrokerApi
from repro.telemetry.control import DecisionJournal
from repro.telemetry.registry import REGISTRY

logger = logging.getLogger(__name__)

#: Seconds after which an ObjectInfo snapshot is discarded.  A stale snapshot,
#: e.g. replayed by a hiccuping broker, must not steer scaling.
SNAPSHOT_HORIZON = 30.0


class ArrivalMonitor:
    """Estimates arrival rate and interarrival variance from queue counters.

    Samples the monotonically increasing ``published`` counter of the
    shared request queue.  Per-sample counts give the rate directly; the
    interarrival variance is estimated from the dispersion of per-sample
    counts (for a renewal process observed over windows of length w,
    Var[N(w)] ≈ w·σ_a²/μ_a³, giving σ_a² = Var[N]·μ_a³/w).

    The sample window is a ``deque(maxlen=window)``: appending past
    capacity drops the oldest sample in O(1), where the previous list
    implementation re-sliced the whole window on every record.
    """

    def __init__(self, window: int = 60):
        self.window = window
        # (timestamp, cumulative_count); maxlen trims oldest-first exactly
        # like the previous ``samples[-window:]`` slice did.
        self._samples: Deque[Tuple[float, int]] = deque(maxlen=window)

    def record(self, timestamp: float, cumulative_count: int) -> None:
        self._samples.append((timestamp, cumulative_count))

    @property
    def rate(self) -> float:
        """Mean arrivals/second over the retained window."""
        if len(self._samples) < 2:
            return 0.0
        (t0, c0), (t1, c1) = self._samples[0], self._samples[-1]
        elapsed = t1 - t0
        if elapsed <= 0:
            return 0.0
        return max(0.0, (c1 - c0) / elapsed)

    @property
    def interarrival_variance(self) -> float:
        """Estimated variance of interarrival times (seconds²)."""
        if len(self._samples) < 3:
            return 0.0
        counts = []
        widths = []
        samples = list(self._samples)
        for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
            if t1 > t0:
                counts.append(c1 - c0)
                widths.append(t1 - t0)
        if not counts:
            return 0.0
        width = sum(widths) / len(widths)
        mean_count = sum(counts) / len(counts)
        if mean_count <= 0:
            return 0.0
        var_count = sum((c - mean_count) ** 2 for c in counts) / len(counts)
        mean_interarrival = width / mean_count
        # Var[N(w)] = w sigma_a^2 / mu_a^3  =>  sigma_a^2 = Var[N] mu_a^3 / w
        return var_count * mean_interarrival**3 / width

    def reset(self) -> None:
        self._samples.clear()


@dataclass
class SupervisorRecord:
    """One control-period entry in the Supervisor's history log."""

    timestamp: float
    arrival_rate: float
    queue_depth: int
    instances_before: int
    desired: int
    spawned: int
    removed: int
    alive_brokers: int

    @property
    def pool_size(self) -> int:
        """Instances once this period's actions landed."""
        return self.instances_before + self.spawned - self.removed


@dataclass
class SupervisorHistory:
    records: List[SupervisorRecord] = field(default_factory=list)

    def append(self, record: SupervisorRecord) -> None:
        self.records.append(record)


class Supervisor:
    """Centralized enforcement of a provisioning policy over one oid pool."""

    def __init__(
        self,
        broker: Broker,
        oid: str,
        provisioner: Provisioner,
        control_interval: float = 1.0,
        min_instances: int = 1,
        max_instances: int = 64,
        journal: Optional[DecisionJournal] = None,
    ):
        self.broker = broker
        self.oid = oid
        # A Supervisor over a partitioned oid (``sync.shard.3``) is just a
        # plain Supervisor — per-shard queues are real queues — but it
        # labels its journal entries and series with the shard so the
        # control planes of N shards stay distinguishable.
        self.base_oid, self.shard = parse_shard_oid(oid)
        self.provisioner = provisioner
        self.control_interval = control_interval
        self.min_instances = min_instances
        self.max_instances = max_instances
        #: Structured control-plane log; None keeps the loop journal-free.
        self.journal = journal
        self.fleet = broker.lookup(REMOTE_BROKER_OID, RemoteBrokerApi)
        self.monitor = ArrivalMonitor()
        self.history = SupervisorHistory()
        self.last_step_at: Optional[float] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._heartbeat_cb = None
        #: The pool size enforced by the previous step (None until a step
        #: reached the fleet); ``decide`` measures the census against it.
        self._enforced_target: Optional[int] = None
        labels = {"oid": oid}
        if self.shard is not None:
            labels["shard"] = str(self.shard)
        REGISTRY.register_source("supervisor", self, Supervisor._scrape, **labels)

    # -- observation -------------------------------------------------------------

    def observe(self, now: Optional[float] = None) -> PoolObservation:
        """Poll fleet + queue and build this period's PoolObservation."""
        now = time.time() if now is None else now
        try:
            stats = self.broker.mom.queue_stats(self.oid)
        except Exception:  # queue not declared yet: nothing bound
            stats = {"published": 0, "ready": 0}
        self.monitor.record(now, stats.get("published", 0))

        snapshots: List[ObjectInfoSnapshot] = []
        for chunk in self.fleet.get_object_info(self.oid):
            snapshots.extend(ObjectInfoSnapshot.from_wire(item) for item in chunk)
        fresh = [s for s in snapshots if not s.is_stale(SNAPSHOT_HORIZON)]
        if len(fresh) < len(snapshots):
            logger.debug(
                "discarding %d stale ObjectInfo snapshot(s) for %s (horizon %.1fs)",
                len(snapshots) - len(fresh), self.oid, SNAPSHOT_HORIZON,
            )
        snapshots = fresh

        service_times = [s.mean_service_time for s in snapshots if s.processed > 0]
        service_vars = [s.service_time_variance for s in snapshots if s.processed > 1]
        mean_service = sum(service_times) / len(service_times) if service_times else 0.0
        service_var = sum(service_vars) / len(service_vars) if service_vars else 0.0

        return PoolObservation(
            oid=self.oid,
            timestamp=now,
            instance_count=len(snapshots),
            queue_depth=stats.get("ready", 0),
            arrival_rate=self.monitor.rate,
            interarrival_variance=self.monitor.interarrival_variance,
            mean_service_time=mean_service,
            service_time_variance=service_var,
            instances=snapshots,
        )

    # -- control -----------------------------------------------------------------

    def step(self, now: Optional[float] = None) -> SupervisorRecord:
        """Run one control period synchronously (used by tests and benches)."""
        observation = self.observe(now)
        alive = self.fleet.ping()
        decision = decide(
            self.provisioner,
            observation,
            self.min_instances,
            self.max_instances,
            self._enforced_target,
            self.journal,
            alive_brokers=len(alive),
        )
        desired = decision.desired
        current = observation.instance_count
        spawned = removed = 0
        if alive:
            while current + spawned < desired:
                try:
                    instance_id = self.fleet.spawn(self.oid)
                except Exception:
                    logger.exception("spawn of %s failed", self.oid)
                    break
                decision.spawned(spawned, instance_id=instance_id)
                spawned += 1
            if current > desired:
                removed = self._remove_surplus(decision, current - desired)
            self._enforced_target = desired

        record = SupervisorRecord(
            timestamp=observation.timestamp,
            arrival_rate=observation.arrival_rate,
            queue_depth=observation.queue_depth,
            instances_before=current,
            desired=desired,
            spawned=spawned,
            removed=removed,
            alive_brokers=len(alive),
        )
        self.history.append(record)
        self.last_step_at = time.monotonic()
        if self._heartbeat_cb is not None:
            self._heartbeat_cb()
        return record

    def _scrape(self) -> dict:
        """Registry source: ``up`` unless the running control loop has not
        stepped for five control periods, then the last step's view of the
        pool and its queue (the series the SLO rules read)."""
        running = self._thread is not None
        stalled = (
            running
            and self.last_step_at is not None
            and time.monotonic() - self.last_step_at > 5 * self.control_interval
        )
        values = {
            "up": float(not stalled),
            "steps": float(len(self.history.records)),
            "running": float(running),
        }
        if self.history.records:
            record = self.history.records[-1]
            values.update(
                pool_size=float(record.pool_size),
                desired=float(record.desired),
                queue_depth=float(record.queue_depth),
                lambda_obs=record.arrival_rate,
            )
            try:
                stats = self.broker.mom.queue_stats(self.oid)
            except Exception:  # queue not declared yet: nothing bound
                stats = {}
            if "redelivered" in stats:
                values["queue_redelivered"] = float(stats["redelivered"])
        return values

    def _remove_surplus(self, decision: ControlDecision, surplus: int) -> int:
        """Shut down the most idle instances first; returns how many went."""
        candidates = sorted(
            decision.observation.instances,
            key=lambda s: (s.busy, s.last_invocation_at or 0.0),
        )
        removed = 0
        for snapshot in candidates[:surplus]:
            if any(self.fleet.shutdown(self.oid, snapshot.instance_id)):
                decision.shut_down(instance_id=snapshot.instance_id)
                removed += 1
        return removed

    # -- background operation --------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="supervisor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def set_heartbeat_callback(self, callback) -> None:
        """Called after every control step (``cli ops`` evaluates its SLOs)."""
        self._heartbeat_cb = callback

    def _run(self) -> None:
        while not self._stop.wait(self.control_interval):
            try:
                self.step()
            except Exception:  # noqa: BLE001 - the supervisor must survive hiccups
                logger.exception("supervisor step failed")


class ShardedSupervisor:
    """One independent control loop per shard of a partitioned oid.

    Each shard's queue has its own arrival process (its slice of the
    workspace population), so each gets its own λ observation, its own
    provisioner instance (policies carry state — EWMA predictors, last
    thresholds) and its own pool target.  All loops share one
    DecisionJournal; entries are distinguishable by their ``shard``
    field, which the per-shard :class:`Supervisor` stamps automatically
    from its oid.

    Args:
        broker: Connected ObjectMQ broker.
        oid: The *base* oid (e.g. ``"sync"``); shard oids are derived.
        provisioner_factory: Zero-arg callable building one fresh
            policy instance per shard.
        shards: Number of partitions.
        journal: Shared decision journal (optional).
        **supervisor_kwargs: Forwarded to every per-shard Supervisor
            (control_interval, min/max_instances, ...).
    """

    def __init__(
        self,
        broker: Broker,
        oid: str,
        provisioner_factory,
        shards: int,
        journal: Optional[DecisionJournal] = None,
        **supervisor_kwargs,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.oid = oid
        self.supervisors: List[Supervisor] = [
            Supervisor(
                broker,
                shard_oid(oid, shard),
                provisioner_factory(),
                journal=journal,
                **supervisor_kwargs,
            )
            for shard in range(shards)
        ]

    @property
    def num_shards(self) -> int:
        return len(self.supervisors)

    def step(self, now: Optional[float] = None) -> List[SupervisorRecord]:
        """Run one control period on every shard; returns records in shard order."""
        return [supervisor.step(now) for supervisor in self.supervisors]

    def pool_sizes(self) -> List[int]:
        """Currently enforced pool size per shard (0 before the first step)."""
        return [
            s.history.records[-1].pool_size if s.history.records else 0
            for s in self.supervisors
        ]

    def start(self) -> None:
        for supervisor in self.supervisors:
            supervisor.start()

    def stop(self) -> None:
        for supervisor in self.supervisors:
            supervisor.stop()
