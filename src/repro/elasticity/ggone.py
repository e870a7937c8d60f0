"""G/G/1 capacity planning — equations (1) and (2) of the paper (§4.3).

Each synchronization server is modeled as a G/G/1 queue (arbitrary
interarrival and service distributions).  Given an SLA on the response
time *d*, the mean service time *s*, and the variances of interarrival and
service times σ_a² and σ_b², a single server can sustain a request rate of
at least::

    δ ≥ [ s + (σ_a² + σ_b²) / (2 (d − s)) ]^{-1}          (1)

and the number of instances needed for a peak arrival rate λ is::

    η = ⌈ λ / δ ⌉                                          (2)

All times are in **seconds** and variances in **seconds²**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ProvisioningError


@dataclass(frozen=True)
class SlaParameters:
    """The operating parameters of Table 3 (defaults match the paper).

    Attributes:
        d: Target response time for a commit request, seconds (450 ms).
        s: Mean service time of a commit request, seconds (50 ms).
        sigma_b2: Service-time variance, seconds² (paper: "200 msec",
            read as 200 ms² = 2.0e-4 s²).
        tau_1: Reactive trigger on overload, fractional (20%).
        tau_2: Reactive trigger on drop, fractional (20%).
    """

    d: float = 0.450
    s: float = 0.050
    sigma_b2: float = 200e-6
    tau_1: float = 0.20
    tau_2: float = 0.20

    def __post_init__(self) -> None:
        if self.d <= self.s:
            raise ProvisioningError(
                f"SLA d={self.d}s must exceed mean service time s={self.s}s"
            )
        if self.s <= 0:
            raise ProvisioningError("mean service time must be positive")


#: The paper's Table 3 configuration.
PAPER_PARAMETERS = SlaParameters()


class GG1CapacityModel:
    """Implements equations (1) and (2) over live-monitored statistics."""

    def __init__(self, params: SlaParameters = PAPER_PARAMETERS):
        self.params = params

    def per_server_rate(
        self,
        ca2: float = 1.0,
        s: float | None = None,
        sigma_b2: float | None = None,
    ) -> float:
        """Equation (1): the sustainable request rate δ of one server.

        Equation (1) is the Kingman waiting-time bound solved for the
        arrival rate, so σ_a² must be the variance of the interarrival
        times *seen by one server*.  Since that stream runs at the very
        rate δ we are solving for, σ_a² = ca2/δ² (with *ca2* the squared
        coefficient of variation of interarrival times, which is
        preserved when a stream is split across servers; ca2 = 1 for
        Poisson arrivals).  Substituting turns equation (1) into a
        quadratic in δ,

            (s·K + σ_b²)·δ² − K·δ + ca2 = 0,   K = 2 (d − s),

        solved in closed form (larger root — the ca2 = 0 limit recovers
        the paper's explicit formula).  When the discriminant is
        negative no rate satisfies the SLA at that variability; the
        vertex (the best achievable δ) is returned instead.

        Args:
            ca2: Squared coefficient of variation of interarrival times
                (monitored as σ_a²·λ² on the global queue; 1.0 = Poisson).
            s: Override of the mean service time (online-monitored value).
            sigma_b2: Override of the service-time variance.
        """
        s = self.params.s if s is None else s
        sigma_b2 = self.params.sigma_b2 if sigma_b2 is None else sigma_b2
        d = self.params.d
        if s <= 0:
            s = self.params.s
        if d <= s:
            # Monitored service time exceeds the SLA: one server can never
            # meet d; report the bare service rate so (2) still scales.
            return 1.0 / s
        ca2 = max(0.0, ca2)
        sigma_b2 = max(0.0, sigma_b2)
        k = 2.0 * (d - s)
        a = s * k + sigma_b2
        discriminant = k * k - 4.0 * a * ca2
        if discriminant < 0:
            # No rate meets the SLA at this variability: return the best
            # achievable (the quadratic's vertex).
            return k / (2.0 * a)
        return (k + math.sqrt(discriminant)) / (2.0 * a)

    def instances_for(
        self,
        lam: float,
        ca2: float = 1.0,
        s: float | None = None,
        sigma_b2: float | None = None,
    ) -> int:
        """Equation (2): η = ⌈λ/δ⌉, with η ≥ 0 and η ≥ 1 whenever λ > 0."""
        if lam <= 0:
            return 0
        delta = self.per_server_rate(ca2=ca2, s=s, sigma_b2=sigma_b2)
        return max(1, math.ceil(lam / delta))

    @staticmethod
    def ca2_from(sigma_a2: float, lam: float) -> float:
        """Squared CV of interarrival times from (variance, rate).

        Scale-invariant, so it can be measured on the aggregate queue and
        reused per server.  Falls back to Poisson (1.0) when unobserved.
        """
        if sigma_a2 <= 0 or lam <= 0:
            return 1.0
        return sigma_a2 * lam * lam
