"""End-to-end benchmark of the live StackSync stack: one command per workload.

    python3 benchmarks/e2e/run.py --workload commit_storm --seed 1
    python3 benchmarks/e2e/run.py --workload file_sync --seed 1 --trace 1
    python3 benchmarks/e2e/run.py --workload all --runs 5
    python3 benchmarks/e2e/run.py --check-repeat

A plain run (``--trace 0``) builds the stack in this process, warms it up,
measures for ``--seconds``, checks the outputs and prints every end-to-end
metric; the last line of standard output is one JSON object.  ``--trace 1``
makes four fresh-process runs of the same seed — untraced, traced,
telemetry-on and the layer probes — and prints the per-layer metrics and the
layer-budget table.  ``--runs`` and ``--check-repeat`` start every run as a
fresh subprocess of this file.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Warm-up before every measured phase: a run started after idle is about
#: twice as fast for its first ~2 s on the sandbox this was sized on.
WARMUP_S = 4.0
#: Measured seconds of each sub-run of ``--trace 1`` (four share one slot).
TRACE_SECONDS = 6.0
CHILD_TIMEOUT_S = 170


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and the sibling modules importable."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"benchmarks/e2e/run.py: no StackSync sources at {SRC}")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_workload(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """One run in this process.  *mode*: ``plain``, ``traced`` or ``telemetry``."""
    import commit_load
    import file_sync
    import layers
    from spans import Recorder

    rec = Recorder() if mode == "traced" else None
    if mode == "telemetry":
        from repro import telemetry

        telemetry.enable()
    if workload == "file_sync":
        result = file_sync.run(seed, seconds, WARMUP_S, rec)
    else:
        result = commit_load.run(workload, seed, seconds, WARMUP_S, rec)
    if rec is not None:
        samples = result.pop("samples")
        spans = list(rec.spans)
        window = (
            min(start for start, _end in samples.values()),
            max(end for _start, end in samples.values()),
        )
        metrics = result["metrics"]
        metrics.update(
            layers.layer_metrics(
                spans, window, result["attempted"], result["items"],
                result.get("apply_owner", ""),
            )
        )
        table, residual = layers.budget_report(spans, samples, metrics["op_p50_ms"][0])
        metrics["bench.residual_share"] = (residual, "ratio")
        result["budget"] = table
        os.makedirs(OUT, exist_ok=True)
        rec.dump(os.path.join(OUT, f"{workload}.trace.json"))
    result.pop("samples", None)
    return result


# -- fresh-process runs ---------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one workload (or the probes) in a fresh interpreter; parse its result."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} run of {workload} printed nothing (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode != 0 or result.get("problems"):
        raise RuntimeError(
            f"{mode} run of {workload} failed: {result.get('problems') or done.returncode}"
        )
    return result


def traced_set(workload: str, seed: int, seconds: float, per_layer: List[dict]) -> dict:
    """The four sub-runs behind ``--trace 1``, merged into one result."""
    short = min(seconds, TRACE_SECONDS)
    plain = spawn(workload, seed, short, "plain")
    traced = spawn(workload, seed, short, "traced")
    telemetry = spawn(workload, seed, short, "telemetry")
    probes = spawn(workload, seed, short, "probes")
    # A layer this workload never reaches reports 0.
    metrics: Dict[str, list] = {m["name"]: [0.0, m["unit"]] for m in per_layer}
    metrics.update(traced["metrics"])
    # Counts and everything end to end come from the untraced run only.
    metrics.update(plain["metrics"])
    metrics.update(probes["metrics"])

    def rate(result: dict) -> float:
        return result["metrics"]["ops_per_s"][0]

    metrics["bench.trace_overhead_ratio"] = [rate(plain) / rate(traced), "ratio"]
    metrics["telemetry.enabled_slowdown"] = [rate(plain) / rate(telemetry), "ratio"]
    return {
        "metrics": metrics,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": [],
        "budget": traced["budget"],
    }


# -- output -----------------------------------------------------------------------


def print_metrics(title: str, metrics: Dict[str, list], names: Optional[List[str]] = None) -> None:
    print(title)
    for name in names if names is not None else sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<42}{value:>16.6g} {unit}")


def contract_line(result: dict, names: List[str]) -> str:
    metrics = {
        name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]}
        for name in names
    }
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def spec_names(spec: dict, section: str) -> List[str]:
    return [metric["name"] for metric in spec[section]]


def report_runs(workload: str, runs: List[dict], end_to_end: List[str]) -> None:
    """Median, quartiles, spread and sample count of every metric of a set."""
    import measure

    summary = measure.summarize(
        {name: value for name, (value, _unit) in run["metrics"].items()} for run in runs
    )
    print(f"{workload}: {len(runs)} fresh-process runs")
    print(f"  {'metric':<26}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'n':>4}")
    for name in end_to_end + sorted(set(summary) - set(end_to_end)):
        row = summary[name]
        print(
            f"  {name:<26}{row['median']:>14.6g}{row['q1']:>14.6g}"
            f"{row['q3']:>14.6g}{row['spread']:>9.1%}{row['n']:>4}",
            flush=True,
        )


def run_set(workloads: List[str], seed: int, seconds: float, runs: int, names) -> Dict[str, List[dict]]:
    """*runs* fresh-process runs per workload; run ``i`` uses ``seed + i``."""
    results = {}
    for workload in workloads:
        results[workload] = [
            spawn(workload, seed + index, seconds, "plain") for index in range(runs)
        ]
        report_runs(workload, results[workload], names)
    return results


def check_repeat(workloads: List[str], seed: int, seconds: float, runs: int, spec: dict) -> int:
    """Two full sets of runs; non-zero when they disagree beyond the bounds."""
    import measure

    names = spec_names(spec, "end_to_end")
    first = run_set(workloads, seed, seconds, runs, names)
    second = run_set(workloads, seed, seconds, runs, names)

    def values(runs: List[dict]) -> List[Dict[str, float]]:
        return [{name: run["metrics"][name][0] for name in names} for run in runs]

    problems = [
        f"{workload}: {problem}"
        for workload in workloads
        for problem in measure.compare_sets(
            spec["end_to_end"], values(first[workload]), values(second[workload])
        )
    ]
    for problem in problems:
        print("DISAGREE", problem)
    print("check-repeat:", "FAILED" if problems else "two sets agree within the bounds")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=0, help="fresh-process runs per workload")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--child", choices=("plain", "traced", "telemetry", "probes"))
    args = parser.parse_args(argv)
    _bootstrap()
    import measure

    if args.child:
        return child(args)

    spec = measure.load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload != "all" and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known} or 'all'")
    workloads = known if args.workload == "all" else [args.workload]
    end_to_end = spec_names(spec, "end_to_end")

    if args.check_repeat:
        return check_repeat(workloads, args.seed, seconds, max(args.runs, 3), spec)
    if args.runs:
        run_set(workloads, args.seed, seconds, args.runs, end_to_end)
        return 0
    if len(workloads) != 1:
        parser.error("name one --workload, or pass --runs / --check-repeat")
    workload = workloads[0]

    if args.trace:
        result = traced_set(workload, args.seed, seconds, spec["per_layer"])
        names = spec_names(spec, "per_layer")
        print(result["budget"])
    else:
        result = run_workload(workload, args.seed, seconds, "plain")
        names = end_to_end
    print_metrics(
        f"{workload} seed={args.seed} seconds={seconds:g}", result["metrics"],
        names if args.trace else None,
    )
    for problem in result["problems"]:
        print("OUTPUT CHECK FAILED:", problem)
    print(contract_line(result, names))
    return 1 if result["problems"] else 0


def child(args) -> int:
    """A sub-run: print the whole raw result as the last line."""
    if args.child == "probes":
        import probes

        result = {"metrics": probes.run(args.seed), "problems": []}
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.child)
    print(json.dumps(result))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
