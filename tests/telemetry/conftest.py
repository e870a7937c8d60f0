"""Telemetry tests share the process-wide TRACER/REGISTRY singletons, so
every test leaves them disabled and empty."""

from __future__ import annotations

import pytest

from repro.telemetry import TRACER


@pytest.fixture(autouse=True)
def reset_telemetry():
    TRACER.enabled = False
    TRACER.clear()
    TRACER.exemplars = None
    yield
    TRACER.enabled = False
    TRACER.clear()
    TRACER.max_spans = 100_000
    TRACER.exemplars = None
