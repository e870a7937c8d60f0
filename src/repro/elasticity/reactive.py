"""Reactive provisioning (§4.3.2).

Reactive provisioning corrects the predictor on short time scales.  Every
invocation it compares the observed arrival rate λ_obs over the past few
minutes with the predicted rate λ_pred; when the ratio exceeds 1 + τ₁
(overload) or drops below 1 − τ₂, the pool is resized directly from
λ_obs via equation (2).  Otherwise the reactive policy has no opinion.

:class:`CombinedProvisioner` wires the two together exactly as the
paper's deployment does: the predictive proposal is the baseline, and a
triggered reactive correction overrides it.
"""

from __future__ import annotations

from typing import Optional

from repro.elasticity.ggone import GG1CapacityModel, PAPER_PARAMETERS, SlaParameters
from repro.elasticity.predictive import PredictiveProvisioner
from repro.objectmq.introspection import PoolObservation
from repro.objectmq.provisioner import Provisioner


class ReactiveProvisioner(Provisioner):
    """Short-time-scale correction of prediction mistakes."""

    name = "reactive"

    def __init__(
        self,
        predictive: Optional[PredictiveProvisioner] = None,
        params: SlaParameters = PAPER_PARAMETERS,
    ):
        """
        Args:
            predictive: The predictor whose λ_pred is the comparison
                baseline.  Without one, every observation with λ_obs > 0
                is treated as a deviation (pure-reactive mode, used by the
                provisioning ablation).
            params: SLA parameters providing τ₁ and τ₂.
        """
        self.predictive = predictive
        self.params = params
        self.model = GG1CapacityModel(params)
        self._monitored_s: Optional[float] = None
        self._monitored_sigma_b2: Optional[float] = None
        self.last_triggered = False

    def predicted_rate(self, timestamp: float) -> float:
        """λ_pred(t) of the comparison baseline (0.0 in pure-reactive mode)."""
        if self.predictive is None:
            return 0.0
        return self.predictive.predicted_rate(timestamp)

    def deviation_detected(self, lam_obs: float, lam_pred: float) -> Optional[str]:
        """Which threshold λ_obs/λ_pred breached: "tau1", "tau2", or None."""
        if lam_pred <= 0:
            return "tau1" if lam_obs > 0 else None
        ratio = lam_obs / lam_pred
        if ratio > 1.0 + self.params.tau_1:
            return "tau1"
        if ratio < 1.0 - self.params.tau_2:
            return "tau2"
        return None

    def propose(self, observation: PoolObservation) -> int:
        if observation.mean_service_time > 0:
            self._monitored_s = observation.mean_service_time
        if observation.service_time_variance > 0:
            self._monitored_sigma_b2 = observation.service_time_variance

        lam_obs = observation.arrival_rate
        lam_pred = self.predicted_rate(observation.timestamp)
        self.last_threshold = self.deviation_detected(lam_obs, lam_pred)
        self.last_triggered = self.last_threshold is not None
        if not self.last_triggered:
            # No correction needed: endorse the current pool size.
            self.last_reason = (
                f"lam_obs={lam_obs:.2f}/s within "
                f"[1-tau2, 1+tau1] of lam_pred={lam_pred:.2f}/s: "
                f"endorse current pool of {observation.instance_count}"
            )
            return observation.instance_count

        ca2 = self.model.ca2_from(observation.interarrival_variance, lam_obs)
        proposal = self.model.instances_for(
            lam_obs,
            ca2=ca2,
            s=self._monitored_s,
            sigma_b2=self._monitored_sigma_b2,
        )
        if self.last_threshold == "tau1":
            band = (
                f"> (1+tau1={1.0 + self.params.tau_1:.2f}) x "
                f"lam_pred={lam_pred:.2f}/s"
            )
        else:
            band = (
                f"< (1-tau2={1.0 - self.params.tau_2:.2f}) x "
                f"lam_pred={lam_pred:.2f}/s"
            )
        self.last_reason = (
            f"lam_obs={lam_obs:.2f}/s {band}: resize from lam_obs, "
            f"eta={proposal} by eq. (2)"
        )
        return proposal


class CombinedProvisioner(Provisioner):
    """Predictive baseline + reactive override, on their own cadences.

    The paper invokes the predictive policy every 15 minutes and the
    reactive policy every 5 minutes.  This combinator evaluates each on
    its own schedule (driven by observation timestamps) and keeps the
    latest proposal of each between invocations; reactive wins when
    triggered.
    """

    name = "predictive+reactive"

    def __init__(
        self,
        predictive: PredictiveProvisioner,
        reactive: ReactiveProvisioner,
        predictive_interval: float = 900.0,
        reactive_interval: float = 300.0,
        online_learning: bool = False,
    ):
        """
        Args:
            online_learning: When True, every predictive-cadence
                observation is also recorded into the predictor's history
                ("the variance of interarrival times can be monitored
                online and adjusted correspondingly", §4.3) — a live
                deployment trains itself instead of loading a trace.
        """
        self.predictive = predictive
        self.reactive = reactive
        self.predictive_interval = predictive_interval
        self.reactive_interval = reactive_interval
        self.online_learning = online_learning
        self._last_predictive_at: Optional[float] = None
        self._last_reactive_at: Optional[float] = None
        self._predictive_proposal = 0
        self._reactive_proposal: Optional[int] = None
        self._predictive_reason = ""
        self._reactive_reason = ""
        self._reactive_threshold: Optional[str] = None

    def propose(self, observation: PoolObservation) -> int:
        now = observation.timestamp
        if (
            self._last_predictive_at is None
            or now - self._last_predictive_at >= self.predictive_interval
        ):
            if self.online_learning and observation.arrival_rate > 0:
                self.predictive.observe_rate(now, observation.arrival_rate)
            self._predictive_proposal = self.predictive.propose(observation)
            self._predictive_reason = self.predictive.last_reason
            self._last_predictive_at = now
        if self._last_reactive_at is None:
            # The reactive policy runs on its own cadence and fires for
            # the first time one full interval after start-up — in the
            # paper's misprediction experiment the wrong predictive
            # allocation stands for the first reactive period before the
            # correction lands (§5.3.3).
            self._last_reactive_at = now
        elif now - self._last_reactive_at >= self.reactive_interval:
            proposal = self.reactive.propose(observation)
            if self.reactive.last_triggered:
                self._reactive_proposal = proposal
                self._reactive_reason = self.reactive.last_reason
                self._reactive_threshold = self.reactive.last_threshold
            else:
                self._reactive_proposal = None
                self._reactive_reason = ""
                self._reactive_threshold = None
            self._last_reactive_at = now
        if self._reactive_proposal is not None:
            self.last_reason = f"reactive override: {self._reactive_reason}"
            self.last_threshold = self._reactive_threshold
            return self._reactive_proposal
        self.last_reason = f"predictive baseline: {self._predictive_reason}"
        self.last_threshold = None
        return self._predictive_proposal

    def predicted_rate(self, timestamp: float) -> float:
        return self.predictive.predicted_rate(timestamp)
