"""Make the benchmark's modules (and ``repro``) importable for its self-tests."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(os.path.dirname(E2E)), "src")

for path in (SRC, E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
