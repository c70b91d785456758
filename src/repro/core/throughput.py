"""Analytic throughput expressions (Propositions 1, 2 and 3).

The paper expresses the long-run throughput of the controls in terms of
Palm expectations of functions of the loss-event intervals:

* **Proposition 1** (basic control)::

      E[X(0)] = E[theta_0] / E[ theta_0 / f(1/theta_hat_0) ]

* **Proposition 2** (comprehensive control, lower bound): the comprehensive
  control's throughput is at least the right-hand side above.

* **Proposition 3** (comprehensive control)::

      E[X(0)] = E[theta_0] / ( E[ theta_0 / f(1/theta_hat_0) ]
                               - E[ V_0 1{theta_hat_1 > theta_hat_0} ] )

  with the correction term ``V_n`` of the paper, from the closed-form
  integral of ``g`` over the growth phase of ODE (16) that every formula
  carries (``growth_time``).

The expressions are evaluated from *samples* of the joint law of
``(theta_0, theta_hat_0, theta_hat_1)`` in one place,
:func:`repro.montecarlo.vectorized_analytic.basic_throughput_rows` and
:func:`~repro.montecarlo.vectorized_analytic.comprehensive_throughput_rows`
(a 1-D sample is one row); the correction is
:func:`repro.montecarlo.vectorized.growth_corrections`, from each
formula's own ``growth_time``.  This module keeps the decomposition of
Proposition 1's comment (the convexity term and the covariance term),
because it is what Claim 1 reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formulas import LossThroughputFormula

__all__ = [
    "ThroughputDecomposition",
    "decompose_throughput",
]


def _validate_samples(intervals: np.ndarray, estimates: np.ndarray) -> None:
    if intervals.shape != estimates.shape:
        raise ValueError("intervals and estimates must have the same shape")
    if intervals.ndim != 1 or intervals.size == 0:
        raise ValueError("samples must be non-empty 1-D arrays")
    if np.any(intervals <= 0.0) or np.any(estimates <= 0.0):
        raise ValueError("intervals and estimates must be strictly positive")


@dataclass(frozen=True)
class ThroughputDecomposition:
    """Decomposition of Proposition 1 used in the comment after it.

    The basic-control throughput can be written as::

        E[X(0)] = (1 / E[1/f(1/theta_hat_0)]) * 1 / (1 + correction)

    where ``correction = cov[theta_0, 1/f(1/theta_hat_0)]
    / (E[theta_0] E[1/f(1/theta_hat_0)])``.  The first factor captures the
    convexity effect (via Jensen's inequality on ``1/f(1/x)``); the second
    captures the covariance between the loss-event interval and the pacing
    implied by the estimator.

    Attributes
    ----------
    throughput:
        The Proposition 1 throughput.
    jensen_factor:
        ``1 / E[1/f(1/theta_hat_0)]`` -- the harmonic-mean rate.
    covariance_correction:
        The normalised covariance term described above.
    normalized_throughput:
        ``throughput / f(p)`` where ``p = 1/E[theta_0]``.
    loss_event_rate:
        ``p = 1 / E[theta_0]``.
    """

    throughput: float
    jensen_factor: float
    covariance_correction: float
    normalized_throughput: float
    loss_event_rate: float


def decompose_throughput(
    formula: LossThroughputFormula,
    intervals: Sequence[float],
    estimates: Sequence[float],
) -> ThroughputDecomposition:
    """Compute the throughput decomposition of Proposition 1's comment."""
    interval_array = np.asarray(intervals, dtype=float)
    estimate_array = np.asarray(estimates, dtype=float)
    _validate_samples(interval_array, estimate_array)
    rates = np.asarray(formula.rate_of_interval(estimate_array), dtype=float)
    inverse_rates = 1.0 / rates
    mean_interval = float(np.mean(interval_array))
    mean_inverse_rate = float(np.mean(inverse_rates))
    # Biased (1/n) covariance so that E[a b] = E[a] E[b] + cov holds exactly
    # on the sample and the decomposition reconstructs the throughput.
    covariance = float(
        np.mean(interval_array * inverse_rates) - mean_interval * mean_inverse_rate
    )
    correction = covariance / (mean_interval * mean_inverse_rate)
    throughput = mean_interval / float(np.mean(interval_array / rates))
    loss_event_rate = 1.0 / mean_interval
    normalized = throughput / float(formula.rate(loss_event_rate))
    return ThroughputDecomposition(
        throughput=throughput,
        jensen_factor=1.0 / mean_inverse_rate,
        covariance_correction=correction,
        normalized_throughput=normalized,
        loss_event_rate=loss_event_rate,
    )
