"""Benchmark harness: trace replay, traffic metering, experiment registry."""

from repro.bench.experiments import EXPERIMENTS, Experiment
from repro.bench.overhead import (
    HTTP_STORAGE_OVERHEAD,
    StackSyncTestbed,
    build_testbed,
    overhead_comparison,
    replay_profile,
    replay_stacksync,
)
from repro.bench.reporting import (
    mb,
    render_boxplot_row,
    render_cdf,
    render_series,
    render_table,
)
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
    soak_rules,
)

__all__ = [
    "DEFAULT_PHASES",
    "EXPERIMENTS",
    "Experiment",
    "HTTP_STORAGE_OVERHEAD",
    "PHASE_DIURNAL",
    "PHASE_FLASH",
    "SoakConfig",
    "SoakHarness",
    "SoakPhaseRecord",
    "SoakResult",
    "SoakVerificationError",
    "StackSyncTestbed",
    "build_testbed",
    "mb",
    "overhead_comparison",
    "render_boxplot_row",
    "render_cdf",
    "render_series",
    "render_table",
    "replay_profile",
    "replay_stacksync",
    "run_soak",
    "soak_rules",
]
