"""One percentile implementation for the whole stack.

The property test pins :func:`repro.telemetry.stats.percentile` — and its
re-users ``CallStats.scrape`` and ``repro.simulation.metrics`` — to
numpy's default linear-interpolation percentile, so client-side latency
reports and simulation boxplots can never drift apart again.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectmq.proxy import CallStats
from repro.simulation import metrics as simulation_metrics
from repro.telemetry.stats import percentile

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    min_size=1,
    max_size=100,
)
fraction_strategy = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(values=values_strategy, fraction=fraction_strategy)
def test_matches_numpy_linear_interpolation(values, fraction):
    expected = float(np.percentile(values, fraction * 100))
    assert percentile(values, fraction) == pytest.approx(expected, abs=1e-6)


@given(values=values_strategy, fraction=fraction_strategy)
@settings(max_examples=50, deadline=None)
def test_simulation_metrics_is_the_same_function(values, fraction):
    assert simulation_metrics.percentile is percentile
    assert simulation_metrics.percentile(values, fraction) == percentile(
        values, fraction
    )


@settings(max_examples=50, deadline=None)
@given(values=values_strategy)
def test_call_stats_delegates_to_shared_percentile(values):
    stats = CallStats()
    for value in values:
        stats.record(value)
    scraped = stats.scrape()
    assert scraped["p50_seconds"] == percentile(values, 0.50)
    assert scraped["p95_seconds"] == percentile(values, 0.95)


def test_call_stats_reservoir_is_bounded():
    stats = CallStats()
    for i in range(stats.RESERVOIR_SIZE + 100):
        stats.record(float(i))
    # Exact aggregates over everything; percentiles over the window.
    assert stats.calls == stats.RESERVOIR_SIZE + 100
    window = [float(i) for i in range(100, stats.RESERVOIR_SIZE + 100)]
    assert stats.scrape()["p50_seconds"] == percentile(window, 0.50)


def test_edge_cases():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.99) == 3.0
    assert percentile([1.0, 2.0], 0.5) == 1.5
    # Fraction is clamped to [0, 1].
    assert percentile([1.0, 2.0], -1.0) == 1.0
    assert percentile([1.0, 2.0], 2.0) == 2.0


def test_does_not_mutate_input():
    values = [3.0, 1.0, 2.0]
    percentile(values, 0.5)
    assert values == [3.0, 1.0, 2.0]


class TestSafePercentile:
    """The scrape-time guard: degenerate series degrade, never lie or raise.

    A soak phase that completed nothing (an idle night trough, a shard
    with no traffic) must scrape to an explicit "no data" — not a fake
    0.0 latency — and a single-sample phase reports that sample for any
    requested fraction.
    """

    def test_empty_returns_none(self):
        from repro.telemetry.stats import safe_percentile

        assert safe_percentile([], 0.5) is None
        assert safe_percentile([], 0.99) is None
        assert safe_percentile((), 0.0) is None

    def test_single_sample_returns_the_sample(self):
        from repro.telemetry.stats import safe_percentile

        assert safe_percentile([7.5], 0.0) == 7.5
        assert safe_percentile([7.5], 0.5) == 7.5
        assert safe_percentile([7.5], 0.99) == 7.5
        assert isinstance(safe_percentile([3], 0.5), float)

    @settings(max_examples=50, deadline=None)
    @given(values=values_strategy, fraction=fraction_strategy)
    def test_matches_percentile_on_real_samples(self, values, fraction):
        from repro.telemetry.stats import safe_percentile

        if len(values) >= 2:
            assert safe_percentile(values, fraction) == percentile(values, fraction)

    def test_exported_from_telemetry_package(self):
        from repro import telemetry

        assert telemetry.safe_percentile([], 0.99) is None
