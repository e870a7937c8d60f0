"""Predictive provisioning (§4.3.1).

The predictor keeps, for every period of the day of duration *T* (the
paper uses 15 minutes), a history of the arrival rates observed at that
period over the past several days.  At the start of each period it
estimates the peak workload λ_pred(t) as a **high percentile** of that
period's historical distribution, then sizes the pool with equation (2).

The provisioner is deliberately clock-driven: the observation's timestamp
is mapped onto a period index, so feeding it a time series from a trace or
from the live supervisor behaves identically.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.elasticity.ggone import GG1CapacityModel, PAPER_PARAMETERS, SlaParameters
from repro.objectmq.introspection import PoolObservation
from repro.objectmq.provisioner import Provisioner


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile on a small sample (no numpy dependency)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class PredictiveProvisioner(Provisioner):
    """Allocates capacity ahead of the expected diurnal peak."""

    name = "predictive"

    def __init__(
        self,
        params: SlaParameters = PAPER_PARAMETERS,
        period: float = 900.0,
        day_length: float = 86400.0,
        history_percentile: float = 0.95,
        period_offset: int = 0,
    ):
        """
        Args:
            params: SLA parameters (Table 3).
            period: Period duration T in seconds (paper: 15 min).
            day_length: Length of a "day" in trace seconds.  Benches that
                time-compress the UB1 trace pass the compressed length.
            history_percentile: The "high percentile" of the arrival
                distribution used as λ_pred.
            period_offset: Shift (in periods) applied when reading the
                history — the misprediction experiment (Fig 8c-e) fools
                the predictor by setting this to the equivalent of 10
                hours, making it predict hour-30 load during hour-20.
        """
        self.params = params
        self.model = GG1CapacityModel(params)
        self.period = period
        self.day_length = day_length
        self.history_percentile = history_percentile
        self.period_offset = period_offset
        self.periods_per_day = max(1, int(round(day_length / period)))
        # period index -> list of observed mean arrival rates (req/s)
        self._history: Dict[int, List[float]] = {}
        # Online-monitored service statistics (updated from observations).
        self._monitored_s: Optional[float] = None
        self._monitored_sigma_b2: Optional[float] = None
        self.last_prediction: float = 0.0

    # -- history -----------------------------------------------------------------

    def period_index(self, timestamp: float) -> int:
        within_day = timestamp % self.day_length
        index = int(within_day // self.period)
        return (index + self.period_offset) % self.periods_per_day

    def load_history(self, rates: Sequence[float], start_time: float = 0.0) -> None:
        """Feed a series of per-period mean arrival rates (req/s).

        *rates* is consumed in order, one entry per period of length T,
        beginning at *start_time*.  Feeding a full week gives every period
        of the day seven samples, matching the paper's setup.
        """
        for i, rate in enumerate(rates):
            timestamp = start_time + i * self.period
            raw_index = int((timestamp % self.day_length) // self.period)
            self._history.setdefault(raw_index, []).append(float(rate))

    def observe_rate(self, timestamp: float, rate: float) -> None:
        """Record a live observation into the history (online learning)."""
        raw_index = int((timestamp % self.day_length) // self.period)
        self._history.setdefault(raw_index, []).append(float(rate))

    def predicted_rate(self, timestamp: float) -> float:
        """λ_pred(t): high percentile of the history for this period."""
        history = self._history.get(self.period_index(timestamp), [])
        return percentile(history, self.history_percentile)

    # -- Provisioner API ------------------------------------------------------------

    def propose(self, observation: PoolObservation) -> int:
        if observation.mean_service_time > 0:
            self._monitored_s = observation.mean_service_time
        if observation.service_time_variance > 0:
            self._monitored_sigma_b2 = observation.service_time_variance
        lam = self.predicted_rate(observation.timestamp)
        self.last_prediction = lam
        ca2 = self.model.ca2_from(
            observation.interarrival_variance, observation.arrival_rate
        )
        proposal = self.model.instances_for(
            lam,
            ca2=ca2,
            s=self._monitored_s,
            sigma_b2=self._monitored_sigma_b2,
        )
        self.last_reason = (
            f"lam_pred={lam:.2f}/s (p{self.history_percentile * 100:.0f} of "
            f"period {self.period_index(observation.timestamp)} history) -> "
            f"eta={proposal} by eq. (2)"
        )
        return proposal
