"""Reachability census: which ``src/repro`` functions no entry point enters.

    python benchmarks/reach.py

Runs every entry point that pays rent -- the six examples, the four e2e
workloads (``--trace 0`` and ``--trace 1``, 2 s each), the CLI commands CI
runs plus ``trace``, ``ub1``, ``demo``, ``capacity`` and ``experiments``, and
the figure and ablation benchmarks at ``REPRO_BENCH_SCALE=0.1`` -- each with
a hook on ``PYTHONPATH`` that records the code object of every Python frame
started in any process it spawns.  Then it parses ``src/repro`` with
``ast`` and prints, by module, every function none of them entered, with
its line count and the total.  Tests are not entry points.

Abstract methods, the bodies of ``Protocol`` classes and stubs (a body of
``...``, ``pass`` or ``raise NotImplementedError``) are not counted: they
have no code to run.

The hook is a global ``sys.settrace`` / ``threading.settrace`` function
that records ``(co_filename, co_firstlineno)`` and returns ``None``, so no
line events are traced; still, timing-bound benchmarks may fail under it.
A failing entry point is listed in the report and does not stop the
census, whose exit status is 0 once the report is printed.  About ten
minutes on two cores.
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Installed as ``sitecustomize`` in every process the census starts.
HOOK = '''
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg, _add=_seen.add):
    code = frame.f_code
    _add((code.co_filename, code.co_firstlineno))
    return None


def _dump():
    sys.settrace(None)
    threading.settrace(None)
    path = os.path.join(os.environ["REACH_DIR"], "%d.reach" % os.getpid())
    with open(path, "w", encoding="utf-8") as fh:
        for filename, line in list(_seen):
            fh.write("%s\\t%d\\n" % (filename, line))


if os.environ.get("REACH_DIR"):
    atexit.register(_dump)
    threading.settrace(_record)
    sys.settrace(_record)
'''

Key = Tuple[str, int]


@dataclass(frozen=True)
class Function:
    path: str
    qualname: str
    first_line: int  # the first decorator's line, else the ``def`` line
    lines: int


# -- matching -------------------------------------------------------------


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # the docstring
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Subscript):  # Protocol[T]
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def functions(path: str, source: Optional[str] = None) -> List[Function]:
    """Every ``def`` in *path* that has code to run."""
    if source is None:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str, in_protocol: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                protocol = any(_name(base) == "Protocol" for base in child.bases)
                visit(child, f"{prefix}{child.name}.", protocol)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = child.decorator_list
                abstract = any(_name(d) == "abstractmethod" for d in decorators)
                if not (in_protocol or abstract or _is_stub(child)):
                    first = decorators[0].lineno if decorators else child.lineno
                    found.append(Function(
                        path, prefix + child.name, first, child.end_lineno - first + 1
                    ))
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_protocol)

    visit(ast.parse(source, filename=path), "", False)
    return found


def unreached(paths: Iterable[str], reached: Set[Key]) -> List[Function]:
    """The functions of *paths* whose code object no process entered."""
    seen = {(os.path.realpath(filename), line) for filename, line in reached}
    return [
        function
        for path in paths
        for function in functions(path)
        if (os.path.realpath(path), function.first_line) not in seen
    ]


def load_reached(directory: str) -> Set[Key]:
    reached: Set[Key] = set()
    for path in glob.glob(os.path.join(directory, "*.reach")):
        with open(path, encoding="utf-8") as fh:
            for row in fh:
                filename, _, line = row.rstrip("\n").rpartition("\t")
                reached.add((filename, int(line)))
    return reached


def report(missing: List[Function]) -> str:
    by_module: Dict[str, List[Function]] = {}
    for function in missing:
        by_module.setdefault(os.path.relpath(function.path, SRC), []).append(function)
    out = []
    for module in sorted(by_module):
        rows = by_module[module]
        out.append(f"{module}  ({sum(f.lines for f in rows)} lines)")
        out.extend(f"  {f.lines:>4}  {f.qualname}  :{f.first_line}" for f in rows)
    total = sum(f.lines for f in missing)
    out.append(
        f"unreached: {len(missing)} functions, {total} lines, in {len(by_module)} modules"
    )
    return "\n".join(out)


# -- entry points ---------------------------------------------------------


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _e2e(workload: str, trace: int) -> List[str]:
    return [
        sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
        "--workload", workload, "--trace", str(trace), "--seed", "1", "--seconds", "2",
    ]


def _wait_for_port(path: str, proc: subprocess.Popen) -> Optional[int]:
    for _ in range(150):
        if os.path.exists(path) and os.path.getsize(path):
            with open(path, encoding="utf-8") as fh:
                return int(fh.read().strip())
        if proc.poll() is not None:
            return None
        time.sleep(0.2)
    return None


def _ops(run: "Runner", tmp: str, shards: int) -> None:
    """Boot ``ops`` as CI does, scrape its routes, then render its journal."""
    port_file = os.path.join(tmp, f"ops{shards}.port")
    journal = os.path.join(tmp, "journal.jsonl")
    args = ["ops", "--duration", "8", "--rate", "40", "--port-file", port_file]
    args += ["--journal", journal] if shards == 1 else ["--shards", str(shards)]
    proc = subprocess.Popen(
        _cli(*args), env=run.env, cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    port = _wait_for_port(port_file, proc)
    notes = [] if port is not None else ["no port"]
    if port is not None:
        base = f"http://127.0.0.1:{port}"
        routes = ["/health", "/metrics"]
        if shards == 1:
            routes += ["/events?n=5", "/events?n=0", "/slo", "/profile"]
        for route in routes:
            try:
                urllib.request.urlopen(base + route, timeout=10).read()
            except OSError as exc:
                notes.append(f"{route}: {exc}")
        if shards == 1:
            run("top --once", _cli("top", "--url", base, "--once"))
    code = proc.wait(timeout=120)
    run.record(f"ops --shards {shards}", code or (1 if notes else 0), notes)
    if shards == 1:
        run("timeline", _cli("timeline", journal))


class Runner:
    """Runs each entry point with the hook on and keeps the exit codes."""

    def __init__(self, env: Dict[str, str]) -> None:
        self.env = env
        self.results: List[Tuple[str, int, List[str]]] = []

    def __call__(self, label: str, command: List[str], extra: Optional[dict] = None) -> None:
        env = dict(self.env, **(extra or {}))
        started = time.monotonic()
        try:
            code = subprocess.run(
                command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=900,
            ).returncode
        except subprocess.TimeoutExpired:
            code = -1
        self.record(label, code, [f"{time.monotonic() - started:.0f} s"])

    def record(self, label: str, code: int, notes: List[str]) -> None:
        self.results.append((label, code, notes))
        print(f"  {'ok  ' if code == 0 else 'FAIL'} {label} {' '.join(notes)}",
              file=sys.stderr, flush=True)


def census(reach_dir: str, hook_dir: str, tmp: str) -> List[Tuple[str, int, List[str]]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [hook_dir, SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env["REACH_DIR"] = reach_dir
    run = Runner(env)

    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        run(os.path.relpath(path, ROOT), [sys.executable, path])
    for workload in ("commit_storm", "commit_paced", "commit_bundle_sqlite", "file_sync"):
        for trace in (0, 1):
            run(f"e2e {workload} --trace {trace}", _e2e(workload, trace))

    chrome, jsonl = os.path.join(tmp, "spans.chrome.json"), os.path.join(tmp, "spans.jsonl")
    run("telemetry", _cli("telemetry", "--jsonl", jsonl, "--chrome", chrome))
    run("telemetry --load", _cli("telemetry", "--load", jsonl))
    _ops(run, tmp, 1)
    _ops(run, tmp, 2)
    soak_journal = os.path.join(tmp, "soak.jsonl")
    run("soak --smoke", _cli("soak", "--smoke", "--journal", soak_journal,
                             "--journal-max-bytes", "1048576"))
    for command in (["trace"], ["ub1"], ["demo"], ["capacity", "100"], ["experiments"]):
        run(" ".join(command), _cli(*command))

    benchmarks = sorted(glob.glob(os.path.join(ROOT, "benchmarks", "test_*.py")))
    run("figure and ablation benchmarks",
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *benchmarks],
        {"REPRO_BENCH_SCALE": "0.1"})
    return run.results


def main() -> int:
    paths = sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True))
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        reach_dir, hook_dir = os.path.join(tmp, "reached"), os.path.join(tmp, "hook")
        os.makedirs(reach_dir)
        os.makedirs(hook_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(HOOK)
        print("reach: running the entry points", file=sys.stderr, flush=True)
        results = census(reach_dir, hook_dir, tmp)
        reached = load_reached(reach_dir)
    failed = [(label, code) for label, code, _ in results if code != 0]
    print(f"entry points: {len(results)} run, {len(failed)} failed under the hook")
    for label, code in failed:
        print(f"  FAILED (exit {code}): {label}")
    print(report(unreached(paths, reached)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
