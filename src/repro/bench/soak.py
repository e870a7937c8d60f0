"""Million-user soak harness: scripted load phases over the sharded control plane.

The paper's elasticity claim (§5-§6) is about *sustained* Ubuntu One-scale
load, but every benchmark in this repo runs for seconds.  This harness
drives :class:`~repro.simulation.autoscale.ShardedAutoscaleSimulation`
with arrival traces synthesized by
:class:`~repro.workload.ubuntuone.UbuntuOneTraceGenerator` — scaled to a
configured registered-user count — through scripted phases:

* ``diurnal-ramp`` — one full compressed day: night trough, morning ramp,
  noon peak, evening decay (the Fig 8a/8b scenario);
* ``flash-crowd`` — a steady segment whose middle third surges to a
  multiple of the diurnal rate (the Fig 8c/8d/8e misprediction stressor).

Each control period of every shard's simulated Supervisor is a *scrape
point*: the harness updates the ``soak_*`` series of a
:class:`~repro.telemetry.registry.MetricsRegistry`, evaluates an
:class:`~repro.telemetry.slo.SloEngine` rule set against the snapshot,
and lets every decision, capacity action and alert edge land in one
shared :class:`~repro.telemetry.control.DecisionJournal`.  Phase
records aggregate what the paper plots (commits/sec, p50/p99 sync
latency, queue depth, pool size) plus the control-plane counts PR 3
introduced (decisions, actions, alert edges).

The DES core is deterministic: identical ``(config, seed)`` reproduce
identical per-phase figures and journal decision sequences on every
machine, so ``tests/bench/test_soak.py`` pins the smoke preset's figures
exactly; a control-plane change that moves them re-pins them.  The
wall-clock runtime carries the ``wall_`` prefix and is never pinned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.elasticity import ReactiveProvisioner, SlaParameters
from repro.objectmq.introspection import PoolObservation
from repro.objectmq.naming import parse_shard_oid
from repro.simulation.autoscale import (
    ShardedAutoscaleSimulation,
    ShardedSimResult,
    SimConfig,
)
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
DEFAULT_PHASES: Tuple[str, ...] = (PHASE_DIURNAL, PHASE_FLASH)

#: The user count the paper's trace corresponds to: Ubuntu One served
#: on the order of a million registered users at its day-8 peak of
#: 8,514 commit requests per minute.  Arrival rates scale linearly.
REFERENCE_USERS = 1_000_000

#: Day of the synthetic UB1 history replayed by ``diurnal-ramp``;
#: ``flash-crowd`` replays the day after it.
DAY_INDEX = 8
FLASH_HOUR = 15.0
#: Surge over the diurnal rate in the flash crowd's middle third.
FLASH_MULTIPLIER = 3.0
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
    max_instances_per_shard: int = 64
    #: Mean commit service time (paper: 50 ms).  Reduced-scale presets
    #: raise it so per-instance load — and therefore the provisioner's
    #: scaling behaviour — matches the full-scale run instead of idling
    #: on one instance per shard.
    service_time_s: float = 0.050
    service_time_variance_s2: float = 200e-6

    def __post_init__(self) -> None:
        for name, floor in (("users", 1), ("shards", 1), ("seconds_per_day", 1)):
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
    """The soak's operational contract, as SLO rules over ``soak_*`` series.

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


@dataclass
class SoakResult:
    """The full outcome of one soak run."""

    config: SoakConfig
    records: List[SoakPhaseRecord] = field(default_factory=list)
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
        """
        problems: List[str] = []
        flaps = self.alert_flap_count()
        if flaps:
            problems.append(f"{flaps} alert flap(s) across phases")
        unjournaled = self.unjournaled_action_count()
        if unjournaled:
            problems.append(f"{unjournaled} capacity action(s) not journaled")
        if problems:
            raise SoakVerificationError("; ".join(problems))


class SoakHarness:
    """Runs the scripted phases and scrapes the stack each control period.

    The ``soak_*`` series land in a private metrics registry, so soaks do
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
        #: The latest ``soak_*`` readings per shard label, read by the
        #: shard's registry source.
        self._readings: Dict[str, Dict[str, float]] = {}
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
        raise ValueError(f"unknown phase {phase!r}")

    # -- scraping --------------------------------------------------------------------

    def _scrape(self, observation: PoolObservation, desired: int) -> None:
        """One control period: the shard's readings + SLO evaluation at
        simulated time.  A shard's first period registers its source."""
        shard = parse_shard_oid(observation.oid)[1]
        label = str(shard if shard is not None else 0)
        if label not in self._readings:
            self.registry.register_source(
                "soak", self, lambda harness: harness._readings[label], shard=label
            )
        self._readings[label] = {
            "queue_depth": float(observation.queue_depth),
            "pool_size": float(observation.instance_count),
            "lambda_obs": float(observation.arrival_rate),
            "pool_desired": float(desired),
        }
        self.slo.evaluate(now=observation.timestamp)
        self._scrapes += 1

    # -- run -------------------------------------------------------------------------

    def run(self) -> SoakResult:
        config = self.config
        started = time.perf_counter()
        result = SoakResult(config=config, journal=self.journal)
        time_origin = 0.0
        for index, phase in enumerate(config.phases):
            record = self._run_phase(index, phase, time_origin)
            result.records.append(record)
            time_origin += record.sim_seconds
        result.wall_runtime_s = time.perf_counter() - started
        return result

    def _run_phase(
        self, index: int, phase: str, time_origin: float
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
        return self._phase_record(
            phase, sharded, duration, seq_before, scrapes_before
        )

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
        )


def run_soak(
    config: Optional[SoakConfig] = None,
    journal: Optional[DecisionJournal] = None,
) -> SoakResult:
    """Convenience one-shot: build a harness, run it, return the result."""
    return SoakHarness(config=config, journal=journal).run()
