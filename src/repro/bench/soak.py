"""Million-user soak harness: scripted load phases over the sharded stack.

The paper's elasticity claim (§5-§6) is about *sustained* Ubuntu One-scale
load, but every benchmark in this repo runs for seconds.  This harness
drives :class:`~repro.simulation.autoscale.ShardedAutoscaleSimulation`
with arrival traces synthesized by
:class:`~repro.workload.ubuntuone.UbuntuOneTraceGenerator` — scaled to a
configured registered-user count — through scripted phases:

* ``diurnal-ramp`` — one full compressed day: night trough, morning ramp,
  noon peak, evening decay (the Fig 8a/8b scenario);
* ``flash-crowd`` — a steady segment whose middle third surges to a
  multiple of the diurnal rate (the Fig 8c/8d/8e misprediction stressor);
* ``rebalance-storm`` — steady traffic while a burst of live
  :meth:`~repro.metadata.sharded.ShardedMetadataBackend.migrate_workspace`
  calls rebalances real workspaces between real metadata shards (the
  operation PR 4 made write-fenced; here it runs under load observation).

Each control period of every shard's simulated Supervisor is a *scrape
point*: the harness updates ``soak_*`` gauges in a
:class:`~repro.telemetry.registry.MetricsRegistry`, evaluates an
:class:`~repro.telemetry.slo.SloEngine` rule set against the snapshot,
and lets every decision, capacity action, alert edge and migration land
in one shared :class:`~repro.telemetry.control.DecisionJournal`.  Phase
records aggregate what the paper plots (commits/sec, p50/p99 sync
latency, queue depth, pool size) plus the control-plane counts PR 3
introduced (decisions, actions, alert edges).

The DES core is deterministic: identical ``(config, seed)`` reproduce
identical per-phase figures and journal decision sequences on every
machine, so ``tests/bench/test_soak.py`` pins the smoke preset's figures
exactly; a control-plane change that moves them re-pins them.
Wall-clock readings (migration latencies, total runtime) carry the
``wall_`` prefix and are never pinned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.elasticity import ReactiveProvisioner, SlaParameters
from repro.metadata.sharded import ShardedMetadataBackend
from repro.objectmq.introspection import PoolObservation
from repro.objectmq.naming import parse_shard_oid
from repro.simulation.autoscale import (
    ShardedAutoscaleSimulation,
    ShardedSimResult,
    SimConfig,
)
from repro.sync.models import ItemMetadata, Workspace
from repro.telemetry.control import (
    KIND_ALERT_FIRED,
    KIND_ALERT_RESOLVED,
    KIND_DECISION,
    KIND_SHUTDOWN,
    KIND_SPAWN,
    DecisionJournal,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.slo import SloEngine, SloRule
from repro.telemetry.stats import safe_percentile
from repro.workload.ubuntuone import (
    PAPER_PEAK_PER_MINUTE,
    UB1Config,
    UbuntuOneTraceGenerator,
)

#: Phase names understood by :meth:`SoakHarness.run`.
PHASE_DIURNAL = "diurnal-ramp"
PHASE_FLASH = "flash-crowd"
PHASE_REBALANCE = "rebalance-storm"
DEFAULT_PHASES: Tuple[str, ...] = (PHASE_DIURNAL, PHASE_FLASH, PHASE_REBALANCE)

#: The user count the paper's trace corresponds to: Ubuntu One served
#: on the order of a million registered users at its day-8 peak of
#: 8,514 commit requests per minute.  Arrival rates scale linearly.
REFERENCE_USERS = 1_000_000

#: Journal event kind written for each live workspace migration.
KIND_MIGRATE = "migrate"

#: Day of the synthetic UB1 history replayed by ``diurnal-ramp``; the
#: other two phases replay the day after it.
DAY_INDEX = 8
FLASH_HOUR = 15.0
#: Surge over the diurnal rate in the flash crowd's middle third.
FLASH_MULTIPLIER = 3.0
REBALANCE_HOUR = 12.0
#: Items (two versions each) seeded into each workspace picked for
#: migration.
ITEMS_PER_MIGRATING_WORKSPACE = 8
#: The simulated Supervisor of every shard.
CONTROL_INTERVAL_S = 5.0
OBSERVATION_WINDOW_S = 30.0
MIN_INSTANCES = 1
SPAWN_DELAY_S = 1.0
#: SLO rule threshold on per-shard queue depth.
QUEUE_ALERT_THRESHOLD = 500


class SoakVerificationError(Exception):
    """A soak run violated its operational contract (flaps, lost actions)."""


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one soak run; invalid values raise ``ValueError``."""

    #: Registered users; scales every arrival rate linearly against the
    #: paper's ~10^6-user trace.
    users: int = REFERENCE_USERS
    #: Metadata/control-plane shards (one supervised pool each).
    shards: int = 4
    seed: int = 2014
    phases: Tuple[str, ...] = DEFAULT_PHASES
    #: Trace seconds representing one day in the diurnal phase (86400 =
    #: real time; the default compresses 30x without changing rates).
    seconds_per_day: int = 2880
    flash_seconds: int = 600
    rebalance_seconds: int = 600
    #: Live workspace migrations fired during ``rebalance-storm``.
    migrations: int = 16
    #: Registered rows actually materialized in the metadata backend.
    #: ``None`` materializes ``min(users, 100_000)`` — the arrival scale
    #: always tracks ``users``; the materialization cap only bounds setup
    #: memory for the 10^6 presets.
    population: Optional[int] = None
    max_instances_per_shard: int = 64
    #: Mean commit service time (paper: 50 ms).  Reduced-scale presets
    #: raise it so per-instance load — and therefore the provisioner's
    #: scaling behaviour — matches the full-scale run instead of idling
    #: on one instance per shard.
    service_time_s: float = 0.050
    service_time_variance_s2: float = 200e-6

    def __post_init__(self) -> None:
        for name, floor in (
            ("users", 1), ("shards", 1), ("seconds_per_day", 1), ("migrations", 0)
        ):
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be at least {floor}")
        if not self.phases:
            raise ValueError("need at least one phase")
        unknown = [p for p in self.phases if p not in DEFAULT_PHASES]
        if unknown:
            raise ValueError(
                f"unknown phase(s) {unknown!r}; valid: {list(DEFAULT_PHASES)}"
            )

    @property
    def effective_population(self) -> int:
        if self.population is not None:
            return self.population
        return min(self.users, 100_000)

    @property
    def rate_scale(self) -> float:
        return self.users / REFERENCE_USERS

    @classmethod
    def smoke(cls, **overrides: object) -> "SoakConfig":
        """The fast CI preset: a 10^5-user soak in well under a minute."""
        base: Dict[str, object] = dict(
            users=100_000,
            shards=2,
            seconds_per_day=720,
            flash_seconds=180,
            rebalance_seconds=180,
            migrations=8,
            max_instances_per_shard=16,
            # 10x the users' share of load per commit: at 1/10th the
            # arrival scale this keeps per-instance utilization — and the
            # scale-up/scale-down dynamics the soak exists to observe —
            # equivalent to the million-user run.
            service_time_s=0.350,
            service_time_variance_s2=0.010,
        )
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]


def soak_rules() -> List[SloRule]:
    """The soak's operational contract, as SLO rules over ``soak_*`` gauges.

    A healthy soak never trips these: queue depth stays under the backlog
    budget for every shard (worst-case across ``shard=`` labels) and no
    shard's pool ever collapses below the floor.
    """
    return SloRule.parse_many(
        f"""
        soak-queue-backlog: soak_queue_depth > {QUEUE_ALERT_THRESHOLD} for 3
        soak-pool-collapse: soak_pool_size < {MIN_INSTANCES} for 2
        """
    )


@dataclass
class MigrationRecord:
    """One live ``migrate_workspace`` call made during the storm."""

    workspace_id: str
    source: int
    target: int
    items: int
    versions: int
    wall_seconds: float
    verified: bool


@dataclass
class SoakPhaseRecord:
    """What one phase measured: paper figures plus control-plane counts."""

    name: str
    sim_seconds: float
    arrivals: int
    completed: int
    commits_per_sec: float
    p50_latency_s: Optional[float]
    p99_latency_s: Optional[float]
    max_queue_depth: int
    mean_pool_size: float
    max_pool_size: int
    decisions: int
    spawns: int
    shutdowns: int
    alerts_fired: int
    alerts_resolved: int
    alert_flaps: int
    #: Capacity deltas implied by control records but absent from the
    #: journal (must be 0: every action is journaled).
    unjournaled_actions: int
    scrapes: int
    migrations: int = 0
    migration_failures: int = 0
    wall_migration_p50_s: Optional[float] = None
    wall_migration_p99_s: Optional[float] = None


@dataclass
class SoakResult:
    """The full outcome of one soak run."""

    config: SoakConfig
    records: List[SoakPhaseRecord] = field(default_factory=list)
    migrations: List[MigrationRecord] = field(default_factory=list)
    journal: Optional[DecisionJournal] = None
    wall_runtime_s: float = 0.0

    def alert_flap_count(self) -> int:
        return sum(r.alert_flaps for r in self.records)

    def unjournaled_action_count(self) -> int:
        return sum(r.unjournaled_actions for r in self.records)

    def verify(self) -> None:
        """Assert the soak's operational contract; raise on violation.

        * No phase flapped an alert (fired the same rule twice).
        * Every capacity action implied by a control decision appears in
          the journal, back-referenced to its decision.
        * Every migration moved its workspace intact.
        """
        problems: List[str] = []
        flaps = self.alert_flap_count()
        if flaps:
            problems.append(f"{flaps} alert flap(s) across phases")
        unjournaled = self.unjournaled_action_count()
        if unjournaled:
            problems.append(f"{unjournaled} capacity action(s) not journaled")
        failed = [m for m in self.migrations if not m.verified]
        if failed:
            problems.append(
                f"{len(failed)} migration(s) failed verification: "
                + ", ".join(m.workspace_id for m in failed[:5])
            )
        if problems:
            raise SoakVerificationError("; ".join(problems))


class SoakHarness:
    """Runs the scripted phases and scrapes the stack each control period.

    The ``soak_*`` gauges land in a private metrics registry, so soaks do
    not pollute (or read stale values from) the process-wide one.

    Args:
        config: The run's knobs (use :meth:`SoakConfig.smoke` for CI).
        journal: Shared decision journal; defaults to a fresh in-memory
            journal.  Pass one with ``path=``/``max_sink_bytes=`` to
            leave a bounded JSONL operations log behind.
    """

    def __init__(
        self,
        config: Optional[SoakConfig] = None,
        journal: Optional[DecisionJournal] = None,
    ):
        self.config = config if config is not None else SoakConfig()
        self.registry = MetricsRegistry()
        self.journal = journal if journal is not None else DecisionJournal()
        self.slo = SloEngine(
            soak_rules(), registry=self.registry, journal=self.journal
        )
        self.generator = UbuntuOneTraceGenerator(
            UB1Config(
                peak_per_minute=PAPER_PEAK_PER_MINUTE * self.config.rate_scale,
                seconds_per_day=self.config.seconds_per_day,
            ),
            seed=self.config.seed,
        )
        self.params = SlaParameters(
            s=self.config.service_time_s,
            sigma_b2=self.config.service_time_variance_s2,
        )
        self._scrapes = 0

    # -- phase traces ----------------------------------------------------------------

    def phase_arrivals(self, phase: str) -> List[int]:
        """The per-second arrival trace driving *phase*."""
        config = self.config
        if phase == PHASE_DIURNAL:
            return self.generator.arrivals(DAY_INDEX)
        if phase == PHASE_FLASH:
            return self.generator.flash_crowd_arrivals(
                DAY_INDEX + 1,
                FLASH_HOUR,
                config.flash_seconds,
                multiplier=FLASH_MULTIPLIER,
            )
        if phase == PHASE_REBALANCE:
            return self.generator.steady_arrivals(
                DAY_INDEX + 1,
                REBALANCE_HOUR,
                config.rebalance_seconds,
            )
        raise ValueError(f"unknown phase {phase!r}")

    # -- population ------------------------------------------------------------------

    def _build_population(self) -> Tuple[ShardedMetadataBackend, List[str]]:
        """Materialize registered users/workspaces; seed migration targets.

        Returns the backend and the workspace ids selected for the
        rebalance storm (already populated with versioned items so a
        migration moves real history).
        """
        config = self.config
        backend = ShardedMetadataBackend.memory(config.shards)
        population = config.effective_population
        backend.create_user("soak")
        workspace_ids = [f"ws-soak-{i:06d}" for i in range(population)]
        for workspace_id in workspace_ids:
            backend.create_workspace(
                Workspace(workspace_id=workspace_id, owner="soak")
            )
        rng = random.Random(f"{config.seed}:migrations")
        count = min(config.migrations, population)
        targets = sorted(rng.sample(range(population), count)) if count else []
        migrating = [workspace_ids[i] for i in targets]
        for workspace_id in migrating:
            for item_index in range(ITEMS_PER_MIGRATING_WORKSPACE):
                backend.store_new_object(ItemMetadata(
                    workspace_id=workspace_id,
                    version=1,
                    filename=f"f{item_index}",
                    device_id="soak",
                ))
                backend.store_new_version(ItemMetadata(
                    workspace_id=workspace_id,
                    version=2,
                    filename=f"f{item_index}",
                    device_id="soak",
                ))
        return backend, migrating

    # -- scraping --------------------------------------------------------------------

    def _scrape(self, observation: PoolObservation, desired: int) -> None:
        """One control period: gauges + SLO evaluation at simulated time."""
        shard = parse_shard_oid(observation.oid)[1]
        labels = {"shard": str(shard if shard is not None else 0)}
        self.registry.gauge("soak_queue_depth", **labels).set(
            observation.queue_depth
        )
        self.registry.gauge("soak_pool_size", **labels).set(
            observation.instance_count
        )
        self.registry.gauge("soak_lambda_obs", **labels).set(
            observation.arrival_rate
        )
        self.registry.gauge("soak_pool_desired", **labels).set(desired)
        self.slo.evaluate(now=observation.timestamp)
        self._scrapes += 1

    # -- run -------------------------------------------------------------------------

    def run(self) -> SoakResult:
        config = self.config
        started = time.perf_counter()
        backend, migrating = self._build_population()
        result = SoakResult(config=config, journal=self.journal)
        time_origin = 0.0
        try:
            for index, phase in enumerate(config.phases):
                record = self._run_phase(index, phase, time_origin, backend,
                                         migrating, result)
                result.records.append(record)
                time_origin += record.sim_seconds
        finally:
            backend.close()
        result.wall_runtime_s = time.perf_counter() - started
        return result

    def _run_phase(
        self,
        index: int,
        phase: str,
        time_origin: float,
        backend: ShardedMetadataBackend,
        migrating: List[str],
        result: SoakResult,
    ) -> SoakPhaseRecord:
        config = self.config
        arrivals = self.phase_arrivals(phase)
        duration = float(len(arrivals))
        seq_before = self._last_seq()
        scrapes_before = self._scrapes

        sim = ShardedAutoscaleSimulation(
            arrivals,
            lambda: ReactiveProvisioner(predictive=None, params=self.params),
            config.shards,
            config=SimConfig(
                params=self.params,
                control_interval=CONTROL_INTERVAL_S,
                observation_window=OBSERVATION_WINDOW_S,
                min_instances=MIN_INSTANCES,
                max_instances=config.max_instances_per_shard,
                spawn_delay=SPAWN_DELAY_S,
                time_origin=time_origin,
                # Phase-distinct seeds keep service processes independent
                # across phases while staying a pure function of config.
                seed=config.seed + 1000 * index,
            ),
            journal=self.journal,
            on_control_period=self._scrape,
        )
        sharded = sim.run()

        migration_records: List[MigrationRecord] = []
        if phase == PHASE_REBALANCE and config.shards > 1:
            migration_records = self._run_migrations(
                backend, migrating, time_origin, duration
            )
            result.migrations.extend(migration_records)

        return self._phase_record(
            phase, sharded, duration, seq_before, scrapes_before,
            migration_records,
        )

    def _run_migrations(
        self,
        backend: ShardedMetadataBackend,
        migrating: List[str],
        time_origin: float,
        duration: float,
    ) -> List[MigrationRecord]:
        """The storm: move every selected workspace to its next shard.

        Wall-clock latencies are real (`migrate_workspace` exports,
        imports and verifies actual rows under its write fence); journal
        timestamps spread the storm across the phase window so the
        timeline interleaves migrations with scaling decisions.
        """
        records: List[MigrationRecord] = []
        step = duration / (len(migrating) + 1) if migrating else duration
        for index, workspace_id in enumerate(migrating):
            source = backend.shard_for_workspace(workspace_id)
            target = (source + 1) % backend.num_shards
            t0 = time.perf_counter()
            summary = backend.migrate_workspace(workspace_id, target)
            wall = time.perf_counter() - t0
            verified = (
                backend.shard_for_workspace(workspace_id) == target
                and all(
                    len(backend.item_history(f"{workspace_id}:f{i}")) == 2
                    for i in range(ITEMS_PER_MIGRATING_WORKSPACE)
                )
            )
            records.append(MigrationRecord(
                workspace_id=workspace_id,
                source=summary["source"],
                target=summary["target"],
                items=summary["items"],
                versions=summary["versions"],
                wall_seconds=wall,
                verified=verified,
            ))
            self.journal.append(
                KIND_MIGRATE,
                time_origin + (index + 1) * step,
                workspace_id=workspace_id,
                source=summary["source"],
                target=summary["target"],
                items=summary["items"],
                versions=summary["versions"],
                wall_ms=round(wall * 1000.0, 3),
                verified=verified,
            )
        return records

    # -- record building -------------------------------------------------------------

    def _last_seq(self) -> int:
        events = self.journal.events()
        return events[-1].seq if events else 0

    def _phase_record(
        self,
        phase: str,
        sharded: ShardedSimResult,
        duration: float,
        seq_before: int,
        scrapes_before: int,
        migration_records: List[MigrationRecord],
    ) -> SoakPhaseRecord:
        events = [e for e in self.journal.events() if e.seq > seq_before]
        decisions = [e for e in events if e.kind == KIND_DECISION]
        spawns = [e for e in events if e.kind == KIND_SPAWN]
        shutdowns = [e for e in events if e.kind == KIND_SHUTDOWN]
        fired = [e for e in events if e.kind == KIND_ALERT_FIRED]
        resolved = [e for e in events if e.kind == KIND_ALERT_RESOLVED]

        # A flap is the same rule firing again within the phase.
        fires_per_rule: Dict[str, int] = {}
        for event in fired:
            rule = str(event.data.get("rule", ""))
            fires_per_rule[rule] = fires_per_rule.get(rule, 0) + 1
        flaps = sum(count - 1 for count in fires_per_rule.values() if count > 1)

        # Every capacity delta a control record implies must appear in
        # the journal as a spawn/shutdown carrying its decision_seq.
        implied = sum(
            abs(record.desired - record.capacity_before)
            for shard_result in sharded.shard_results
            for record in shard_result.control_records
        )
        referenced = sum(
            1 for e in spawns + shutdowns if e.data.get("decision_seq")
        )
        unjournaled = abs(implied - len(spawns) - len(shutdowns)) + (
            len(spawns) + len(shutdowns) - referenced
        )

        latencies = sharded.response_times()
        pool_series = sharded.total_capacity_series()
        pool_sizes = [size for _t, size in pool_series]
        max_queue = max(
            (
                record.queue_depth
                for shard_result in sharded.shard_results
                for record in shard_result.control_records
            ),
            default=0,
        )
        migration_walls = [m.wall_seconds for m in migration_records]
        return SoakPhaseRecord(
            name=phase,
            sim_seconds=duration,
            arrivals=sharded.total_arrivals,
            completed=sharded.total_completed,
            commits_per_sec=(
                sharded.total_completed / duration if duration else 0.0
            ),
            p50_latency_s=safe_percentile(latencies, 0.50),
            p99_latency_s=safe_percentile(latencies, 0.99),
            max_queue_depth=max_queue,
            mean_pool_size=(
                sum(pool_sizes) / len(pool_sizes) if pool_sizes else 0.0
            ),
            max_pool_size=max(pool_sizes, default=0),
            decisions=len(decisions),
            spawns=len(spawns),
            shutdowns=len(shutdowns),
            alerts_fired=len(fired),
            alerts_resolved=len(resolved),
            alert_flaps=flaps,
            unjournaled_actions=unjournaled,
            scrapes=self._scrapes - scrapes_before,
            migrations=len(migration_records),
            migration_failures=sum(
                1 for m in migration_records if not m.verified
            ),
            wall_migration_p50_s=safe_percentile(migration_walls, 0.50),
            wall_migration_p99_s=safe_percentile(migration_walls, 0.99),
        )


def run_soak(
    config: Optional[SoakConfig] = None,
    journal: Optional[DecisionJournal] = None,
) -> SoakResult:
    """Convenience one-shot: build a harness, run it, return the result."""
    return SoakHarness(config=config, journal=journal).run()
