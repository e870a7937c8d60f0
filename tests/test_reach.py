"""The reachability census's matcher (``benchmarks/reach.py``).

The census records ``(co_filename, co_firstlineno)`` of every frame an
entry point starts and matches it to the ``def``s that ``ast`` finds.  These
tests run that matcher over a small module, with frames recorded the same
way; they do not run the census's entry points.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import textwrap

import pytest

REACH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "reach.py")

SAMPLE = textwrap.dedent('''
    import functools
    from abc import ABC, abstractmethod
    from typing import Protocol


    def traced(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            return fn(*args)
        return wrapper


    @traced
    @traced
    def decorated():
        return 1


    @traced
    def decorated_unused():
        return 2


    def outer():
        def inner():
            return 3
        def inner_unused():
            return 4
        return inner()


    class Base(ABC):
        @abstractmethod
        def run(self):
            return None

        def helper(self):
            return 5

        def unused_helper(self):
            return 6


    class Shape(Protocol):
        def area(self) -> float:
            return 0.0


    class Stub:
        def todo(self):
            """Later."""
            raise NotImplementedError("later")

        def nothing(self):
            pass

        def ellipsis(self):
            ...
''')


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_under_test", REACH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves its module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def run_recorded(path, calls):
    """Import *path* and run *calls* on it, recording every frame started."""
    seen = set()

    def record(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    spec = importlib.util.spec_from_file_location("reach_sample", path)
    module = importlib.util.module_from_spec(spec)
    previous = sys.gettrace()
    sys.settrace(record)
    try:
        spec.loader.exec_module(module)
        calls(module)
    finally:
        sys.settrace(previous)
    return seen


def test_matcher_classifies_each_kind_of_def(reach, tmp_path):
    path = str(tmp_path / "sample.py")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SAMPLE)

    def calls(module):
        assert module.decorated() == 1
        assert module.outer() == 3
        concrete = type("Concrete", (module.Base,), {"run": lambda self: None})()
        assert concrete.helper() == 5

    reached = run_recorded(path, calls)
    counted = {f.qualname for f in reach.functions(path)}
    # Abstract methods, Protocol bodies and stubs have no code to run.
    assert counted == {
        "traced", "traced.wrapper", "decorated", "decorated_unused", "outer",
        "outer.inner", "outer.inner_unused", "Base.helper", "Base.unused_helper",
    }
    missing = reach.unreached([path], reached)
    assert {f.qualname for f in missing} == {
        "decorated_unused", "outer.inner_unused", "Base.unused_helper",
    }
    # A decorated def starts at its first decorator, as co_firstlineno does.
    decorated = next(f for f in reach.functions(path) if f.qualname == "decorated")
    assert SAMPLE.splitlines()[decorated.first_line - 1].strip() == "@traced"
    assert decorated.lines == 4
    report = reach.report(missing)
    assert report.splitlines()[-1] == "unreached: 3 functions, 7 lines, in 1 modules"


@pytest.mark.parametrize(
    "source, counted",
    [
        ("def f():\n    return 1\n", True),
        ("def f():\n    'Doc only.'\n", False),
        ("def f():\n    raise NotImplementedError\n", False),
        ("def f():\n    raise ValueError('no')\n", True),
        ("def f():\n    pass\n    return 1\n", True),
        ("async def f():\n    return 1\n", True),
        ("import abc\nclass A(abc.ABC):\n    @abc.abstractmethod\n    def f(self):\n"
         "        return 1\n", False),
        ("import typing\nclass P(typing.Protocol):\n    def f(self):\n        return 1\n",
         False),
        ("from typing import Protocol, TypeVar\nT = TypeVar('T')\n"
         "class P(Protocol[T]):\n    def f(self):\n        return 1\n", False),
    ],
    ids=[
        "body", "docstring-only", "not-implemented", "other-raise", "pass-then-body",
        "async", "abc-attribute", "typing-protocol", "generic-protocol",
    ],
)
def test_which_defs_have_code_to_run(reach, source, counted):
    found = [f.qualname.rsplit(".", 1)[-1] for f in reach.functions("m.py", source)]
    assert found == (["f"] if counted else [])


def test_reached_keys_round_trip_through_the_dump_format(reach, tmp_path):
    (tmp_path / "1.reach").write_text("/a/b.py\t3\n/a/b.py\t7\n", encoding="utf-8")
    (tmp_path / "2.reach").write_text("/a/tab\tname.py\t9\n", encoding="utf-8")
    assert reach.load_reached(str(tmp_path)) == {
        ("/a/b.py", 3), ("/a/b.py", 7), ("/a/tab\tname.py", 9),
    }
