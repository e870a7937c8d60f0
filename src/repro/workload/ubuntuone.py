"""Ubuntu One arrival-trace synthesizer (§5.3.1).

The paper drives its auto-scaling experiments with anonymized traces of
commit-request arrivals to the Ubuntu One control servers (November
2013): one week of history at 15-minute summaries to train the predictive
provisioner, plus the per-second arrivals of "day 8" (a typical day, peak
8,514 commit requests per minute) as the experiment input.

The production trace is not redistributable, so this module synthesizes
an equivalent: a strong diurnal profile (deep night trough, noon peak —
"the workload typically peaks around noon every day and reaches its
minimum level in the middle of the night"), mild weekday/weekend
modulation, slowly-varying day-to-day noise, and Poisson per-second
arrivals.  Day 8 replays the weekday profile with fresh noise, which is
exactly the property ("closely resembled that observed on the previous
week") the predictive provisioner exploits.

All series are expressed in *trace seconds*; ``seconds_per_day``
compresses the day so that simulations replay a full diurnal cycle in a
tractable number of steps without changing any arrival *rate*.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

#: The paper's reported peak for day 8.
PAPER_PEAK_PER_MINUTE = 8514.0


@dataclass(frozen=True)
class UB1Config:
    """Shape parameters of the synthetic UB1 workload."""

    peak_per_minute: float = PAPER_PEAK_PER_MINUTE
    #: Trough rate as a fraction of the peak (middle of the night).
    trough_fraction: float = 0.08
    #: Hour of day (0-24) where the workload peaks.
    peak_hour: float = 12.5
    #: Half-width of the morning ramp (hours): the workload rises from
    #: the trough to the peak over this span.
    rise_hours: float = 6.5
    #: Half-width of the evening decay (hours): slower than the morning
    #: ramp, so evenings stay busier than the small hours — the asymmetry
    #: real Personal-Cloud traces show (and the one that makes hour 30,
    #: 6 a.m., much quieter than hour 20, 8 p.m., in the misprediction
    #: experiment of §5.3.3).
    fall_hours: float = 16.0
    #: Weekend rates are scaled by this factor.
    weekend_factor: float = 0.75
    #: Std-dev of the per-day lognormal amplitude noise.
    day_noise: float = 0.05
    #: Std-dev of the slowly-varying intra-day noise.
    intra_day_noise: float = 0.08
    #: Number of trace seconds representing one day (86400 = real time).
    seconds_per_day: int = 86400

    @property
    def peak_per_second(self) -> float:
        return self.peak_per_minute / 60.0


class UbuntuOneTraceGenerator:
    """Synthesizes per-second arrival-rate and arrival-count series."""

    def __init__(self, config: Optional[UB1Config] = None, seed: int = 2013):
        self.config = config if config is not None else UB1Config()
        self.seed = seed

    # -- deterministic diurnal profile ---------------------------------------------

    def _diurnal_factor(self, hour: float) -> float:
        """Asymmetric 24h profile in [trough_fraction, 1], peaking at
        peak_hour.

        Two half raised-cosines of different widths: a steeper morning
        rise (``rise_hours``) and a gentler evening decay
        (``fall_hours``), matching the qualitative UB1 shape reported by
        the paper and by Gracia-Tinedo et al. [15] — quiet small hours, a
        noon peak, and evenings busier than mornings.
        """
        config = self.config
        # Signed distance from the peak within the day, in (-12, 12].
        distance = (hour - config.peak_hour) % 24.0
        if distance > 12.0:
            distance -= 24.0
        width = config.fall_hours if distance >= 0 else config.rise_hours
        phase = min(math.pi, abs(distance) / width * math.pi)
        raised = (1.0 + math.cos(phase)) / 2.0  # 1 at peak, 0 beyond width
        raised **= 1.5  # sharpen the peak slightly
        return config.trough_fraction + (1.0 - config.trough_fraction) * raised

    def rate_profile(self, day_index: int) -> List[float]:
        """Deterministic-plus-noise per-second arrival rates for one day."""
        config = self.config
        rng = random.Random(f"{self.seed}:{day_index}")
        weekend = day_index % 7 in (5, 6)
        day_amplitude = config.peak_per_second * math.exp(
            rng.gauss(0.0, config.day_noise)
        )
        if weekend:
            day_amplitude *= config.weekend_factor

        n = config.seconds_per_day
        rates: List[float] = []
        # Slowly varying multiplicative noise: an Ornstein-Uhlenbeck-ish
        # AR(1) walk refreshed every simulated minute.
        noise = 0.0
        minute_len = max(1, n // (24 * 60))
        for i in range(n):
            if i % minute_len == 0:
                noise = 0.9 * noise + rng.gauss(0.0, config.intra_day_noise * 0.44)
            hour = (i / n) * 24.0
            rate = day_amplitude * self._diurnal_factor(hour) * math.exp(noise)
            rates.append(max(0.0, rate))
        return rates

    def arrivals(self, day_index: int) -> List[int]:
        """Poisson-sampled integer arrivals per second for one day."""
        rng = random.Random(f"{self.seed}:{day_index}:arrivals")
        return [_poisson(rng, rate) for rate in self.rate_profile(day_index)]

    # -- provisioner inputs -----------------------------------------------------------

    def week_history_summaries(
        self, period: float = 900.0, start_day: int = 1, days: int = 7
    ) -> List[float]:
        """Mean arrival rate (req/s) per period over *days* days.

        This is the "history of the observed arrival rate for each time
        period" that feeds :class:`PredictiveProvisioner.load_history`.
        *period* is in trace seconds (900 = 15 real minutes when
        ``seconds_per_day`` is 86400; scale it proportionally otherwise).
        """
        summaries: List[float] = []
        for day in range(start_day, start_day + days):
            rates = self.rate_profile(day)
            step = max(1, int(round(period)))
            for start in range(0, len(rates), step):
                window = rates[start : start + step]
                summaries.append(sum(window) / len(window))
        return summaries

    def day8(self) -> List[int]:
        """The experiment input: per-second arrivals of day 8."""
        return self.arrivals(8)

    # -- soak-phase segments ---------------------------------------------------------

    def flash_crowd_arrivals(
        self,
        day_index: int,
        hour: float,
        seconds: int,
        multiplier: float = 3.0,
        ramp_fraction: float = 0.1,
    ) -> List[int]:
        """A steady segment with a flash crowd in its middle third.

        The middle third of the window runs at *multiplier* times the
        underlying diurnal rate, with linear ramps of ``ramp_fraction``
        of the window on each edge — the "sudden but not instantaneous"
        surge shape of a viral share or a service coming back from an
        outage, which is the load pattern elasticity papers (and §5.3.3's
        misprediction experiment) stress provisioners with.
        """
        if multiplier < 1.0:
            raise ValueError("flash multiplier must be >= 1")
        rates = self.rate_profile(day_index)
        start = int((hour / 24.0) * len(rates)) % len(rates)
        segment = [rates[(start + i) % len(rates)] for i in range(seconds)]
        ramp = max(1, int(seconds * ramp_fraction))
        surge_start = seconds // 3
        surge_end = 2 * seconds // 3
        for i in range(len(segment)):
            if surge_start <= i < surge_end:
                factor = multiplier
            elif surge_start - ramp <= i < surge_start:
                factor = 1.0 + (multiplier - 1.0) * (
                    (i - (surge_start - ramp)) / ramp
                )
            elif surge_end <= i < surge_end + ramp:
                factor = multiplier - (multiplier - 1.0) * (
                    (i - surge_end) / ramp
                )
            else:
                factor = 1.0
            segment[i] *= factor
        rng = random.Random(
            f"{self.seed}:{day_index}:flash:{hour}:{seconds}:{multiplier}"
        )
        return [_poisson(rng, rate) for rate in segment]

    def peak_of(self, arrivals: List[int], window: Optional[int] = None) -> float:
        """Peak arrivals per minute of a per-second series."""
        if window is None:
            window = max(1, self.config.seconds_per_day // (24 * 60))
        best = 0
        for start in range(0, len(arrivals), window):
            total = sum(arrivals[start : start + window])
            best = max(best, total)
        # Normalize to a per-real-minute figure.
        return best * (60.0 / window) if window else 0.0


def _poisson(rng: random.Random, lam: float) -> int:
    """Poisson sample; Knuth for small λ, normal approximation for large."""
    if lam <= 0:
        return 0
    if lam > 50:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    limit = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count
