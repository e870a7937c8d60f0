"""Registry of the paper's tables and figures → benchmark targets.

A machine-readable version of the per-experiment index in DESIGN.md.
``pytest benchmarks/`` files look experiments up here for their
parameters; the registry also backs the EXPERIMENTS.md generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Experiment:
    """One paper artifact and how this repository regenerates it."""

    exp_id: str
    paper_artifact: str
    description: str
    bench_file: str
    modules: List[str] = field(default_factory=list)
    expectations: str = ""


EXPERIMENTS: Dict[str, Experiment] = {
    e.exp_id: e
    for e in [
        Experiment(
            exp_id="T1",
            paper_artifact="Table 1",
            description="Desktop client versions used in the evaluation",
            bench_file="benchmarks/test_table1_clients.py",
            modules=["repro.baselines.provider_profiles"],
            expectations="Static metadata matches the paper verbatim.",
        ),
        Experiment(
            exp_id="F7a",
            paper_artifact="Fig 7(a)",
            description="CDF of file size of the generated trace",
            bench_file="benchmarks/test_fig7a_filesize_cdf.py",
            modules=["repro.workload.trace", "repro.workload.filesizes"],
            expectations="~90% of files < 4 MB; mean ≈ 583 KB.",
        ),
        Experiment(
            exp_id="F7b",
            paper_artifact="Fig 7(b)",
            description="Protocol overhead: total traffic / benchmark size",
            bench_file="benchmarks/test_fig7b_overhead.py",
            modules=["repro.bench.overhead", "repro.baselines", "repro.client"],
            expectations="Dropbox highest overhead; StackSync low, comparable "
            "to the other commercial services.",
        ),
        Experiment(
            exp_id="F7c",
            paper_artifact="Fig 7(c)",
            description="Control traffic per action type, StackSync vs Dropbox",
            bench_file="benchmarks/test_fig7cd_traffic_by_action.py",
            modules=["repro.bench.overhead", "repro.baselines.dropbox"],
            expectations="Dropbox ADD control ≈ 8x StackSync's; REMOVE control "
            "dominated by Dropbox per-op cost.",
        ),
        Experiment(
            exp_id="F7d",
            paper_artifact="Fig 7(d)",
            description="Storage traffic per action type, StackSync vs Dropbox",
            bench_file="benchmarks/test_fig7cd_traffic_by_action.py",
            modules=["repro.bench.overhead", "repro.baselines.delta"],
            expectations="StackSync ADD storage < Dropbox; Dropbox UPDATE "
            "storage < StackSync (delta encoding wins).",
        ),
        Experiment(
            exp_id="T2",
            paper_artifact="Table 2",
            description="Effect of file bundling, batch size 5/10/20/40",
            bench_file="benchmarks/test_table2_bundling.py",
            modules=["repro.client.sync_client", "repro.baselines.baseline_client"],
            expectations="Control traffic shrinks with batch size for both; "
            "Dropbox total stays above StackSync.",
        ),
        Experiment(
            exp_id="F7e",
            paper_artifact="Fig 7(e)",
            description="Time to sync 6 devices per operation type (boxplots)",
            bench_file="benchmarks/test_fig7e_sync_time.py",
            modules=["repro.objectmq", "repro.sync", "repro.client", "repro.storage"],
            expectations="All ops sync in seconds; UPDATE right-skewed "
            "(boundary-shifting); REMOVE cheapest (no data flow).",
        ),
        Experiment(
            exp_id="F7f",
            paper_artifact="Fig 7(f)",
            description="Sync time vs file size",
            bench_file="benchmarks/test_fig7f_sync_time_vs_size.py",
            modules=["repro.client", "repro.storage.latency"],
            expectations="Flat floor for small files, linear growth beyond "
            "the knee (paper: ≈2.5 MB).",
        ),
        Experiment(
            exp_id="T3",
            paper_artifact="Table 3",
            description="Provisioning parameters for the UB1 workload",
            bench_file="benchmarks/test_fig8ab_autoscaling.py",
            modules=["repro.elasticity.ggone"],
            expectations="d=450 ms, s=50 ms, σb²=200 ms², τ1=τ2=20%.",
        ),
        Experiment(
            exp_id="F8a",
            paper_artifact="Fig 8(a)",
            description="Day-8 workload and instance counts (pred+reactive)",
            bench_file="benchmarks/test_fig8ab_autoscaling.py",
            modules=["repro.workload.ubuntuone", "repro.elasticity", "repro.simulation"],
            expectations="Instances mimic the diurnal workload at all times.",
        ),
        Experiment(
            exp_id="F8b",
            paper_artifact="Fig 8(b)",
            description="Response times under auto-scaling (SLA 450 ms)",
            bench_file="benchmarks/test_fig8ab_autoscaling.py",
            modules=["repro.simulation.autoscale"],
            expectations="Response times stay under the SLA except short "
            "spikes at instance arrival/removal.",
        ),
        Experiment(
            exp_id="F8c",
            paper_artifact="Fig 8(c)",
            description="Expected vs observed arrival rate (misprediction)",
            bench_file="benchmarks/test_fig8cde_misprediction.py",
            modules=["repro.elasticity.predictive"],
            expectations="Predictor fooled into hour-30 pattern during hour 20.",
        ),
        Experiment(
            exp_id="F8d",
            paper_artifact="Fig 8(d)",
            description="Instance counts under misprediction",
            bench_file="benchmarks/test_fig8cde_misprediction.py",
            modules=["repro.elasticity.reactive"],
            expectations="Reactive provisioner corrects the wrong allocation "
            "within a few control periods.",
        ),
        Experiment(
            exp_id="F8e",
            paper_artifact="Fig 8(e)",
            description="Response times under misprediction",
            bench_file="benchmarks/test_fig8cde_misprediction.py",
            modules=["repro.simulation.autoscale"],
            expectations="High response times while under-provisioned, sharp "
            "drop after the reactive correction.",
        ),
        Experiment(
            exp_id="F8f",
            paper_artifact="Fig 8(f)",
            description="Fault tolerance: instance crash every 30 s",
            bench_file="benchmarks/test_fig8f_fault_tolerance.py",
            modules=["repro.objectmq.supervisor", "repro.objectmq.faults"],
            expectations="Response time rises during crashes but stays well "
            "bounded (paper: < 1 s extra); no request lost.",
        ),
    ]
}
