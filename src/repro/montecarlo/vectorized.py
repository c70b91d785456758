"""The package's one control kernel: the basic and comprehensive controls
evaluated in whole-array numpy passes.

* the estimator trajectory is a sliding dot product of the weight vector
  over the interval sequence (one ``matmul`` per run),
* the comprehensive control's provisional estimate
  ``max(w1 theta_n + sum_{l>=2} w_l theta_{n-l+1}, theta_hat_n)`` is the
  *same* sliding product shifted by one position, and
* its duration correction is elementwise, :func:`growth_corrections`:
  Proposition 3's ``V`` from the formula's own closed-form
  ``growth_time``, evaluated only where the estimate grows.  The
  analytic Proposition 3 kernel of
  :mod:`repro.montecarlo.vectorized_analytic` subtracts the same
  corrections, so the two paths cannot disagree on ``V``.

:func:`repro.api.simulate_batch` stacks many grid points as rows of one
interval matrix, and :func:`repro.api.simulate` -- the one way to run
the control over a sampled loss process -- is the same evaluator over a
one-row grid.  :func:`vectorized_control_trace` returns one run's
per-event trajectory, the :class:`~repro.core.control.ControlTrace`
that :func:`repro.core.conditions.evaluate_conditions` reads.  The
per-event loops of :mod:`repro.core.control` are the reference
semantics and the test oracle: same warm-up convention (the first ``L``
intervals seed the estimator and are excluded from the trace), equal to
numerical precision.  The oracle integrates Proposition 3's growth phase
with a quadrature of its own, so it checks the closed forms too.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import telemetry
from ..core.control import ControlTrace
from ..core.formulas import LossThroughputFormula

__all__ = [
    "sliding_estimates",
    "growth_corrections",
    "evaluate_control_arrays",
    "summarize_rows",
    "vectorized_control_trace",
]

#: Growth-activation tolerance, identical to the loop implementation's.
_GROWTH_EPSILON = 1e-15

#: Duration floor, identical to the loop implementation's.
_DURATION_FLOOR = 1e-12


def _normalized_weights(weights: Sequence[float]) -> np.ndarray:
    weight_array = np.asarray(list(weights), dtype=float)
    if weight_array.ndim != 1 or weight_array.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if np.any(weight_array <= 0.0):
        raise ValueError("all weights must be strictly positive")
    return weight_array / weight_array.sum()


def sliding_estimates(
    intervals: np.ndarray, weights: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(kept, estimates, candidates)`` for one or many runs.

    ``intervals`` has shape ``(num_events + L,)`` or
    ``(runs, num_events + L)``; the leading ``L`` entries of each run warm
    up the estimator (the convention of ``BasicControl.run`` with the
    default warm-up).  Returns, per run:

    * ``kept`` -- the ``num_events`` intervals after warm-up
      (``theta_n``),
    * ``estimates`` -- ``theta_hat_n``, the moving average of the ``L``
      intervals preceding each kept interval,
    * ``candidates`` -- the comprehensive control's fully-grown
      provisional estimate ``w1 theta_n + sum_{l>=2} w_l theta_{n-l+1}``
      (the sliding product shifted by one position).
    """
    array = np.asarray(intervals, dtype=float)
    if array.ndim not in (1, 2):
        raise ValueError("intervals must be a 1-D or 2-D array")
    if np.any(array <= 0.0):
        raise ValueError("intervals must be strictly positive")
    weight_array = _normalized_weights(weights)
    window = weight_array.size
    if array.shape[-1] <= window:
        raise ValueError(
            "need more than L intervals (the first L warm up the estimator)"
        )
    with telemetry.span(
        "kernel.montecarlo.sliding_estimates",
        rows=1 if array.ndim == 1 else array.shape[0],
        window=window,
        items=array.size,
    ):
        # ma[..., j] = sum_l w_l A[..., j + L - l]: the weighted average
        # of the window *ending* at position j + L - 1, most recent
        # interval first.
        windows = sliding_window_view(array, window, axis=-1)
        moving_average = windows @ weight_array[::-1]
    kept = array[..., window:]
    estimates = moving_average[..., :-1]
    candidates = moving_average[..., 1:]
    return kept, estimates, candidates


def growth_corrections(
    formula: LossThroughputFormula,
    estimates: np.ndarray,
    next_estimates: np.ndarray,
    rates: np.ndarray,
    w1: float,
) -> np.ndarray:
    """Return Proposition 3's ``V 1{theta_hat' > theta_hat}`` elementwise.

    ``V`` is the time the comprehensive control saves on an interval
    whose estimate grows from ``theta_hat`` to ``theta_hat'``, where the
    basic control keeps sending at ``rates = f(1/theta_hat)``::

        V = (theta_hat' - theta_hat) / (w1 f(1/theta_hat))
            - growth_time(theta_hat, theta_hat') / w1

    Only where the estimate grows by more than the loop oracle's
    tolerance is ``V`` evaluated; elsewhere the correction is zero.
    """
    grows = next_estimates > estimates + _GROWTH_EPSILON
    lower, upper = estimates[grows], next_estimates[grows]
    linear_time = (upper - lower) / (w1 * rates[grows])
    corrections = np.zeros_like(estimates)
    corrections[grows] = linear_time - formula.growth_time(lower, upper) / w1
    return corrections


def evaluate_control_arrays(
    formula: LossThroughputFormula,
    kept: np.ndarray,
    estimates: np.ndarray,
    candidates: Optional[np.ndarray],
    w1: float,
    comprehensive: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(rates, durations)`` arrays for the requested control.

    ``kept``/``estimates``/``candidates`` are the arrays produced by
    :func:`sliding_estimates` (or affine transforms of them -- the batch
    facade exploits that a moving average with unit-sum weights commutes
    with affine rescaling of the intervals); ``w1`` is the normalised
    first weight.
    """
    with telemetry.span(
        "kernel.montecarlo.control",
        rows=1 if np.ndim(kept) == 1 else np.shape(kept)[0],
        comprehensive=comprehensive,
        items=np.size(kept),
    ):
        return _evaluate_control_arrays(
            formula, kept, estimates, candidates, w1, comprehensive
        )


def _evaluate_control_arrays(
    formula: LossThroughputFormula,
    kept: np.ndarray,
    estimates: np.ndarray,
    candidates: Optional[np.ndarray],
    w1: float,
    comprehensive: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    rates = np.asarray(formula.rate_of_interval(estimates), dtype=float)
    durations = kept / rates
    if not comprehensive:
        return rates, durations
    assert candidates is not None
    corrections = growth_corrections(
        formula, estimates, np.maximum(candidates, estimates), rates, w1
    )
    durations = durations - corrections
    # The loop oracle's floor: a correction never takes a duration to zero.
    np.maximum(durations, _DURATION_FLOOR, out=durations, where=corrections > 0.0)
    return rates, durations


def vectorized_control_trace(
    formula: LossThroughputFormula,
    intervals: Sequence[float],
    weights: Sequence[float],
    comprehensive: bool = False,
) -> ControlTrace:
    """Evaluate one control run in whole-array passes.

    Drop-in replacement for ``BasicControl(...).run(intervals)`` /
    ``ComprehensiveControl(...).run(intervals)`` with the default warm-up
    (the leading ``L`` intervals seed the history and are excluded from
    the trace); returns the same :class:`~repro.core.control.ControlTrace`
    to numerical precision.
    """
    array = np.asarray(intervals, dtype=float)
    if array.ndim != 1:
        raise ValueError("intervals must be a 1-D sequence")
    kept, estimates, candidates = sliding_estimates(array, weights)
    weight_array = _normalized_weights(weights)
    rates, durations = evaluate_control_arrays(
        formula, kept, estimates, candidates,
        float(weight_array[0]), comprehensive,
    )
    return ControlTrace(
        intervals=kept, estimates=estimates, rates=rates, durations=durations
    )


def summarize_rows(
    formula: LossThroughputFormula,
    kept: np.ndarray,
    estimates: np.ndarray,
    durations: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Per-row Palm summaries; a zero total duration is rejected."""
    num_events = kept.shape[-1]
    total_durations = durations.sum(axis=-1)
    if np.any(total_durations <= 0.0):
        raise ValueError("trace has zero total duration")
    throughput = kept.sum(axis=-1) / total_durations
    loss_event_rate = 1.0 / kept.mean(axis=-1)
    normalized = throughput / np.asarray(formula.rate(loss_event_rate), dtype=float)
    kept_centered = kept - kept.mean(axis=-1, keepdims=True)
    estimate_means = estimates.mean(axis=-1, keepdims=True)
    covariance = (kept_centered * (estimates - estimate_means)).sum(axis=-1) / max(
        num_events - 1, 1
    )
    estimator_cv = estimates.std(axis=-1) / estimate_means[..., 0]
    return {
        "throughput": throughput,
        "normalized_throughput": normalized,
        "loss_event_rate": loss_event_rate,
        "interval_estimate_covariance": covariance,
        "estimator_cv": estimator_cv,
    }
