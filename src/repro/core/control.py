"""Equation-based rate control laws: the basic and comprehensive controls.

The paper studies two control laws driven by a sequence of loss-event
intervals ``theta_n`` (packets sent between successive loss events):

* the **basic control** (equation (3)): the send rate is piecewise constant,
  ``X(t) = f(1/theta_hat_n)`` on ``[T_n, T_{n+1})``;
* the **comprehensive control** (equation (4)): in addition, when no loss
  event has occurred for a while (the open interval ``theta(t)`` exceeds the
  activation threshold ``A_t``), the estimator -- and hence the send rate --
  is allowed to grow within the interval.  This mirrors TFRC's behaviour.

Both controls are *packet-clocked*: the duration ``S_n`` of the n-th
inter-loss interval is determined by how long it takes to send ``theta_n``
packets at the controlled rate.  This module computes, for a given sequence
of loss-event intervals, the induced durations ``S_n``, rates ``X_n``, and
the long-run throughput ``E[theta_0] / E[S_0]`` (Palm inversion formula),
which is the quantity all of the paper's conservativeness results are about.

For the comprehensive control the interval duration subtracts Proposition
3's correction, with the growth phase of ODE (16) integrated by a quadrature
of its own: these loops are the test oracle of the kernels in
:mod:`repro.montecarlo`, and share no closed form with them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .estimator import MovingAverageEstimator, tfrc_weights
from .formulas import LossThroughputFormula, PftkStandardFormula

__all__ = [
    "ControlTrace",
    "BasicControl",
    "ComprehensiveControl",
    "run_basic_control",
    "run_comprehensive_control",
]


@dataclass
class ControlTrace:
    """Per-loss-event trajectory of a rate control run.

    Attributes
    ----------
    intervals:
        ``theta_n`` -- loss-event intervals in packets.
    estimates:
        ``theta_hat_n`` -- estimator value in force during interval ``n``.
    rates:
        ``X_n = f(1/theta_hat_n)`` -- send rate set at the n-th loss event.
    durations:
        ``S_n`` -- duration in seconds of the n-th inter-loss interval.
    """

    intervals: np.ndarray
    estimates: np.ndarray
    rates: np.ndarray
    durations: np.ndarray

    def __post_init__(self) -> None:
        self.intervals = np.asarray(self.intervals, dtype=float)
        self.estimates = np.asarray(self.estimates, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float)
        self.durations = np.asarray(self.durations, dtype=float)
        lengths = {
            self.intervals.shape,
            self.estimates.shape,
            self.rates.shape,
            self.durations.shape,
        }
        if len(lengths) != 1:
            raise ValueError("all trace arrays must have the same shape")

    def __len__(self) -> int:
        return self.intervals.shape[0]

    # ------------------------------------------------------------------
    # Palm-calculus summaries
    # ------------------------------------------------------------------
    @property
    def throughput(self) -> float:
        """Long-run throughput ``E[theta_0] / E[S_0]`` in packets/second.

        This is the Palm inversion formula (equation (14)/(15) of the
        paper): total packets sent divided by total elapsed time.
        """
        total_time = float(np.sum(self.durations))
        if total_time <= 0.0:
            raise ValueError("trace has zero total duration")
        return float(np.sum(self.intervals)) / total_time

    @property
    def loss_event_rate(self) -> float:
        """Loss-event rate ``p = 1 / E[theta_0]`` seen by the source."""
        mean_interval = float(np.mean(self.intervals))
        if mean_interval <= 0.0:
            raise ValueError("trace has non-positive mean interval")
        return 1.0 / mean_interval

    @property
    def event_average_rate(self) -> float:
        """``E^0_N[X_0]`` -- the average of the rates set at loss events."""
        return float(np.mean(self.rates))

    def normalized_throughput(self, formula: LossThroughputFormula) -> float:
        """Return ``x_bar / f(p)``, the conservativeness ratio.

        Values below one mean the control is conservative with respect to
        the supplied formula evaluated at the loss-event rate it observed.
        """
        return self.throughput / float(formula.rate(self.loss_event_rate))

    def rate_duration_covariance(self) -> float:
        """Empirical ``cov[X_0, S_0]`` (condition (C2)/(C2c) of Theorem 2)."""
        if len(self) < 2:
            return 0.0
        return float(np.cov(self.rates, self.durations, ddof=1)[0, 1])

    def interval_estimate_covariance(self) -> float:
        """Empirical ``cov[theta_0, theta_hat_0]`` (condition (C1))."""
        if len(self) < 2:
            return 0.0
        return float(np.cov(self.intervals, self.estimates, ddof=1)[0, 1])


class BasicControl:
    """The basic equation-based rate control (equation (3) of the paper).

    Parameters
    ----------
    formula:
        The loss-throughput formula ``f``.
    weights:
        Estimator weights; defaults to the TFRC profile with ``L = 8``.
    initial_interval:
        Seed value for the estimator history, in packets.
    """

    def __init__(
        self,
        formula: LossThroughputFormula,
        weights: Optional[Sequence[float]] = None,
        initial_interval: float = 1.0,
    ) -> None:
        self.formula = formula
        weight_values = tfrc_weights(8) if weights is None else weights
        self.estimator = MovingAverageEstimator(
            weight_values, initial_interval=initial_interval
        )

    def rate_for_estimate(self, estimate: float) -> float:
        """Return ``f(1/theta_hat)`` for a given estimator value."""
        if estimate <= 0.0:
            raise ValueError("estimate must be positive")
        return float(self.formula.rate_of_interval(estimate))

    def interval_duration(self, interval: float, estimate: float) -> float:
        """Return ``S_n = theta_n / f(1/theta_hat_n)`` in seconds."""
        return float(interval) / self.rate_for_estimate(estimate)

    def run(
        self,
        intervals: Sequence[float],
        warmup: Optional[int] = None,
    ) -> ControlTrace:
        """Drive the control with a sequence of loss-event intervals.

        Parameters
        ----------
        intervals:
            The loss-event intervals ``theta_n`` in packets.
        warmup:
            Number of leading intervals used only to warm up the estimator
            (defaults to the estimator window length ``L``).
        """
        interval_array = np.asarray(list(intervals), dtype=float)
        if interval_array.ndim != 1 or interval_array.size == 0:
            raise ValueError("intervals must be a non-empty 1-D sequence")
        if np.any(interval_array <= 0.0):
            raise ValueError("intervals must be strictly positive")
        history_length = self.estimator.history_length
        warmup_count = history_length if warmup is None else int(warmup)
        if warmup_count < 0:
            raise ValueError("warmup must be non-negative")
        if warmup_count >= interval_array.size:
            raise ValueError("warmup consumes the entire interval sequence")

        self.estimator.reset()
        if warmup_count > 0:
            self.estimator.seed_history(interval_array[:warmup_count][::-1])
        kept = interval_array[warmup_count:]
        estimates = np.empty_like(kept)
        rates = np.empty_like(kept)
        durations = np.empty_like(kept)
        for index, interval in enumerate(kept):
            estimate = self.estimator.current_estimate()
            rate = self.rate_for_estimate(estimate)
            estimates[index] = estimate
            rates[index] = rate
            durations[index] = interval / rate
            self.estimator.record_interval(interval)
        return ControlTrace(
            intervals=kept, estimates=estimates, rates=rates, durations=durations
        )


class ComprehensiveControl(BasicControl):
    """The comprehensive control (equation (4) of the paper).

    Within a loss-event interval the send rate starts at
    ``f(1/theta_hat_n)`` and, once the number of packets sent since the
    last loss event exceeds the activation threshold, grows according to
    the updated estimator.  The interval duration ``S_n`` is therefore
    *shorter* than under the basic control for the same ``theta_n`` when
    the estimator would increase, which is why the comprehensive control's
    throughput is lower-bounded by the basic control's (Proposition 2).

    The duration subtracts Proposition 3's correction, with the growth
    phase of ODE (16) integrated by :func:`_inverse_rate_integral`, a
    quadrature that shares no closed form with the formulas it checks.
    """

    # ------------------------------------------------------------------
    # Duration of one loss-event interval
    # ------------------------------------------------------------------
    def interval_duration(self, interval: float, estimate: float) -> float:
        """Return ``S_n`` for the comprehensive control.

        ``estimate`` must be the estimator value in force at the start of
        the interval (``theta_hat_n``), computed from the estimator's
        current history; the estimator history is *not* modified.
        """
        base_duration = float(interval) / self.rate_for_estimate(estimate)
        next_estimate = self.estimator.provisional_estimate(float(interval))
        if next_estimate <= estimate + 1e-15:
            # The estimator would not grow: identical to the basic control.
            return base_duration
        correction = self._duration_correction(estimate, next_estimate)
        duration = base_duration - correction
        # Numerical safety: the duration can never drop below the time it
        # takes to send the packets preceding the activation threshold.
        return max(duration, 1e-12)

    def _duration_correction(self, estimate: float, next_estimate: float) -> float:
        """Return ``V_n`` such that ``S_n = theta_n/f(1/theta_hat_n) - V_n``.

        During the growth phase the provisional estimate sweeps from
        ``theta_hat_n`` to ``theta_hat_{n+1}`` and the instantaneous rate is
        ``f(1/y)`` where ``y`` is the provisional estimate.  The elapsed
        time is ``integral dy / (w1 f(1/y))``; the basic control would have
        spent ``(theta_hat_{n+1} - theta_hat_n)/(w1 f(1/theta_hat_n))`` on
        the same packets, and the correction is the difference.
        """
        w1 = float(self.estimator.weights[0])
        growth_time = _inverse_rate_integral(self.formula, estimate, next_estimate) / w1
        linear_time = (next_estimate - estimate) / (
            w1 * self.rate_for_estimate(estimate)
        )
        return linear_time - growth_time

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------
    def run(
        self,
        intervals: Sequence[float],
        warmup: Optional[int] = None,
    ) -> ControlTrace:
        interval_array = np.asarray(list(intervals), dtype=float)
        if interval_array.ndim != 1 or interval_array.size == 0:
            raise ValueError("intervals must be a non-empty 1-D sequence")
        if np.any(interval_array <= 0.0):
            raise ValueError("intervals must be strictly positive")
        history_length = self.estimator.history_length
        warmup_count = history_length if warmup is None else int(warmup)
        if warmup_count < 0:
            raise ValueError("warmup must be non-negative")
        if warmup_count >= interval_array.size:
            raise ValueError("warmup consumes the entire interval sequence")

        self.estimator.reset()
        if warmup_count > 0:
            self.estimator.seed_history(interval_array[:warmup_count][::-1])
        kept = interval_array[warmup_count:]
        estimates = np.empty_like(kept)
        rates = np.empty_like(kept)
        durations = np.empty_like(kept)
        for index, interval in enumerate(kept):
            estimate = self.estimator.current_estimate()
            estimates[index] = estimate
            rates[index] = self.rate_for_estimate(estimate)
            durations[index] = self.interval_duration(interval, estimate)
            self.estimator.record_interval(interval)
        return ControlTrace(
            intervals=kept, estimates=estimates, rates=rates, durations=durations
        )


def _inverse_rate_integral(
    formula: LossThroughputFormula, lower: float, upper: float
) -> float:
    """Return ``integral_lower^upper dy / f(1/y)`` by Gauss-Legendre quadrature.

    The 16-point rule runs on geometric panels, each at most a factor of 2
    wide, so it resolves ``1/f(1/y)`` near ``y = 0`` as well as far from
    it; PFTK-standard's ``min`` term puts a kink at ``y = c2^2``, which is
    made a panel edge.  Only ``formula.rate_of_interval`` is evaluated: no
    closed form of the formula enters, so the kernels' ``growth_time`` is
    checked against an independent computation.
    """
    panels = max(1, int(np.ceil(np.log2(upper / lower))))
    edges = np.geomspace(lower, upper, panels + 1)
    if isinstance(formula, PftkStandardFormula):
        switch = formula.c2 * formula.c2
        if lower < switch < upper:
            edges = np.sort(np.append(edges, switch))
    rule_nodes, rule_weights = _gauss_legendre_rule()
    half_widths = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half_widths * rule_nodes
    inverse_rates = 1.0 / formula.rate_of_interval(nodes)
    return float(np.sum(half_widths * rule_weights * inverse_rates))


@functools.cache
def _gauss_legendre_rule() -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the oracle's 16-point rule on ``[-1, 1]``.

    Built on first use: importing :mod:`numpy.polynomial` costs every
    process about 2 MB, and only the oracle needs it.
    """
    return np.polynomial.legendre.leggauss(16)


def run_basic_control(
    formula: LossThroughputFormula,
    intervals: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    warmup: Optional[int] = None,
) -> ControlTrace:
    """Convenience wrapper: run the basic control over a loss-interval trace."""
    return BasicControl(formula, weights=weights).run(intervals, warmup=warmup)


def run_comprehensive_control(
    formula: LossThroughputFormula,
    intervals: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    warmup: Optional[int] = None,
) -> ControlTrace:
    """Convenience wrapper: run the comprehensive control over a trace."""
    return ComprehensiveControl(formula, weights=weights).run(intervals, warmup=warmup)
