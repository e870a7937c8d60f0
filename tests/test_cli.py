"""Tests for the stacksync-repro command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_trace_command(capsys):
    code, out = run_cli(
        capsys, "trace", "--snapshots", "20", "--scale", "0.02", "--seed", "3"
    )
    assert code == 0
    assert "ADDs" in out
    assert "mean file size" in out


def test_ub1_command(capsys):
    code, out = run_cli(capsys, "ub1", "--resolution", "480")
    assert code == 0
    assert "peak:" in out
    assert "8,514" in out


def test_capacity_command(capsys):
    code, out = run_cli(capsys, "capacity", "142")
    assert code == 0
    assert "18.5" in out  # per-server rate at Table 3 parameters
    assert "| 8" in out.replace("           8", "| 8")  # eta = 8


def test_capacity_custom_sla(capsys):
    code, out = run_cli(capsys, "capacity", "100", "--sla", "900", "--service", "50")
    assert code == 0
    # Looser SLA -> higher per-server rate than the default 18.56.
    rate_line = next(line for line in out.splitlines() if "eq. 1" in line)
    rate = float(rate_line.split("|")[2].strip().split()[0])
    assert rate > 18.56


def test_experiments_command(capsys):
    code, out = run_cli(capsys, "experiments")
    assert code == 0
    for exp_id in ("T1", "T2", "T3", "F7a", "F8f"):
        assert exp_id in out
    assert "pytest benchmarks/" in out


def test_demo_command(capsys):
    code, out = run_cli(capsys, "demo")
    assert code == 0
    assert "hello from the laptop" in out


def test_timeline_command(capsys, tmp_path):
    from repro.telemetry import DecisionJournal

    journal = DecisionJournal()
    decision = journal.append(
        "decision", 0.0, oid="syncservice", lam_obs=10.0, lam_pred=12.0,
        census=1, desired=2, policy="fixed", reason="fixed target of 2",
    )
    journal.append(
        "spawn", 0.0, oid="syncservice", reason="scale-up",
        policy_reason="fixed target of 2", decision_seq=decision.seq,
    )
    journal.append(
        "decision", 5.0, oid="syncservice", lam_obs=11.0, lam_pred=12.0,
        census=2, desired=2, policy="fixed", reason="fixed target of 2",
    )
    path = str(tmp_path / "journal.jsonl")
    journal.write(path)

    code, out = run_cli(capsys, "timeline", path)
    assert code == 0
    assert "Pool size over time" in out
    assert "observed vs predicted" in out
    assert "scale-up" in out
    assert "fixed target of 2" in out


def test_timeline_command_empty_journal(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["timeline", str(path)]) == 1


def test_ops_command_serves_and_journals(capsys, tmp_path):
    """End-to-end: boot the demo stack briefly, scrape every route, then
    regenerate the timeline from the journal it wrote."""
    import json
    import urllib.request

    journal_path = str(tmp_path / "journal.jsonl")
    port_file = str(tmp_path / "port")

    import threading

    def probe_routes():
        import time

        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                with open(port_file) as fh:
                    port = int(fh.read())
                break
            except (FileNotFoundError, ValueError):
                time.sleep(0.05)
        else:
            pytest.fail("ops never wrote its port file")
        base = f"http://127.0.0.1:{port}"
        with urllib.request.urlopen(base + "/health", timeout=5) as response:
            probe_routes.health = json.loads(response.read())
        with urllib.request.urlopen(base + "/metrics", timeout=5) as response:
            probe_routes.metrics = response.read().decode()

    prober = threading.Thread(target=probe_routes)
    prober.start()
    code, out = run_cli(
        capsys, "ops", "--duration", "3", "--rate", "30",
        "--journal", journal_path, "--port-file", port_file,
    )
    prober.join(timeout=15)
    assert code == 0
    assert "ops endpoint: http://127.0.0.1:" in out
    assert "/slo /profile" in out  # the banner prints http.ROUTES
    assert "run complete:" in out
    assert probe_routes.health["components"]
    assert "supervisor_pool_size" in probe_routes.metrics

    code, out = run_cli(capsys, "timeline", journal_path)
    assert code == 0
    assert "Pool size over time" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_soak_command_checks_the_contract(capsys):
    from repro.bench.soak import DEFAULT_PHASES

    code, out = run_cli(
        capsys, "soak", "--smoke", "--users", "20000", "--shards", "1",
        "--seconds-per-day", "60",
    )
    assert code == 0
    assert "contract: OK" in out
    first_cells = [
        line.strip("|").split("|")[0].strip()
        for line in out.splitlines()
        if line.startswith("|")
    ]
    for phase in DEFAULT_PHASES:
        assert first_cells.count(phase) == 1


@pytest.mark.parametrize(
    "bad_args",
    [
        ["--phases", "chaos"],
        ["--phases", ","],
        ["--shards", "0"],
        ["--seconds-per-day", "0"],
        ["--phases", "rebalance-storm"],
        ["--users", "0"],
    ],
)
def test_soak_command_rejects_bad_arguments(capsys, bad_args):
    code = main(["soak", "--smoke", *bad_args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("soak: ")
    assert "Traceback" not in captured.err


def test_soak_command_writes_bounded_journal(capsys, tmp_path):
    journal_path = tmp_path / "soak.jsonl"
    code, out = run_cli(
        capsys, "soak", "--smoke", "--users", "20000", "--shards", "1",
        "--seconds-per-day", "60", "--phases", "diurnal-ramp",
        "--journal", str(journal_path), "--journal-max-bytes", "65536",
    )
    assert code == 0
    assert journal_path.exists()
    assert journal_path.stat().st_size <= 65536


def _segment_rows(out):
    """``(segment, share)`` rows of the printed span self-time table."""
    section = out.split("-- where the wall-clock goes (span self-time) --")[1]
    rows = []
    for line in section.splitlines():
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] != "segment":
            rows.append((cells[0], cells[2]))
    return rows


def test_telemetry_command(capsys, tmp_path):
    import json

    from repro.telemetry import TRACER

    jsonl = tmp_path / "spans.jsonl"
    chrome = tmp_path / "spans.chrome.json"
    code, out = run_cli(
        capsys, "telemetry",
        "--initial-files", "2", "--training", "1", "--snapshots", "4",
        "--jsonl", str(jsonl), "--chrome", str(chrome),
    )
    assert code == 0
    replayed = _segment_rows(out)
    assert replayed
    assert "tail exemplars" in out
    # The Chrome export is the span trace_event file: one labeled row per
    # layer the JSONL dump holds.
    layers = {json.loads(line)["layer"] for line in jsonl.read_text().splitlines()}
    events = json.loads(chrome.read_text())["traceEvents"]
    rows = [e["args"]["name"] for e in events if e["name"] == "thread_name"]
    assert sorted(rows) == sorted(layers)
    # Tracer and reservoir are torn back down after the run.
    assert not TRACER.enabled
    assert TRACER.exemplars is None

    # Offline: the same segment table from the dump, and no exemplars
    # (the reservoir lived only for the replay).
    code, out = run_cli(capsys, "telemetry", "--load", str(jsonl))
    assert code == 0
    assert _segment_rows(out) == replayed
    assert "tail exemplars" not in out


def test_telemetry_command_tears_down_when_replay_raises(monkeypatch):
    import repro.bench.overhead
    from repro.telemetry import TRACER

    def failing_replay(trace):
        assert TRACER.enabled and TRACER.exemplars is not None
        raise RuntimeError("replay failed")

    monkeypatch.setattr(repro.bench.overhead, "replay_stacksync", failing_replay)
    with pytest.raises(RuntimeError, match="replay failed"):
        main([
            "telemetry",
            "--initial-files", "2", "--training", "1", "--snapshots", "4",
        ])
    assert not TRACER.enabled
    assert TRACER.exemplars is None
