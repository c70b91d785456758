"""The package's one control kernel: the basic and comprehensive controls
evaluated in whole-array numpy passes.

* the estimator trajectory is a sliding dot product of the weight vector
  over the interval sequence (one ``matmul`` per run),
* the comprehensive control's provisional estimate
  ``max(w1 theta_n + sum_{l>=2} w_l theta_{n-l+1}, theta_hat_n)`` is the
  *same* sliding product shifted by one position, and
* its duration correction is elementwise: Proposition 3's closed form for
  SQRT and PFTK-simplified, otherwise ODE (16) integrated over fixed-size
  chunks of the growing elements, so memory stays linear in run length.

:func:`repro.api.simulate_batch` stacks many grid points as rows of one
interval matrix, and :func:`repro.api.simulate` is the same evaluator
over a one-row grid.  The ``simulate_basic_control`` /
``simulate_comprehensive_control`` wrappers and
:func:`vectorized_control_trace` (the phase study of
:mod:`repro.analysis.phases`) make one-run calls.  The per-event loops
of :mod:`repro.core.control` are the reference semantics and the test
oracle: same warm-up convention (the first ``L`` intervals seed the
estimator and are excluded from the trace), equal to numerical precision.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import telemetry
from ..core.control import ControlTrace
from ..core.formulas import (
    LossThroughputFormula,
    PftkSimplifiedFormula,
    SqrtFormula,
)

__all__ = [
    "sliding_estimates",
    "evaluate_control_arrays",
    "summarize_rows",
    "vectorized_control_trace",
    "vectorized_control_summaries",
]

#: Growth-activation tolerance, identical to the loop implementation's.
_GROWTH_EPSILON = 1e-15

#: Duration floor, identical to the loop implementation's.
_DURATION_FLOOR = 1e-12

#: Growing elements integrated per pass of the generic-formula ODE
#: fallback; bounds its ``(ode_steps, chunk)`` grids to a few MiB each.
_ODE_CHUNK = 2048


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


def evaluate_control_arrays(
    formula: LossThroughputFormula,
    kept: np.ndarray,
    estimates: np.ndarray,
    candidates: Optional[np.ndarray],
    w1: float,
    comprehensive: bool = False,
    ode_steps: int = 256,
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
            formula, kept, estimates, candidates, w1, comprehensive, ode_steps
        )


def _evaluate_control_arrays(
    formula: LossThroughputFormula,
    kept: np.ndarray,
    estimates: np.ndarray,
    candidates: Optional[np.ndarray],
    w1: float,
    comprehensive: bool,
    ode_steps: int,
) -> Tuple[np.ndarray, np.ndarray]:
    rates = np.asarray(formula.rate_of_interval(estimates), dtype=float)
    durations = kept / rates
    if not comprehensive:
        return rates, durations
    assert candidates is not None
    next_estimates = np.maximum(candidates, estimates)
    grows = next_estimates > estimates + _GROWTH_EPSILON
    if not np.any(grows):
        return rates, durations
    if isinstance(formula, (SqrtFormula, PftkSimplifiedFormula)):
        c1r = formula.c1 * formula.rtt
        c2q = (
            formula.c2 * formula.rto
            if isinstance(formula, PftkSimplifiedFormula)
            else 0.0
        )
        growth_time = (
            2.0 * c1r * (np.sqrt(next_estimates) - np.sqrt(estimates))
            - 2.0 * c2q * (next_estimates**-0.5 - estimates**-0.5)
            - (64.0 / 5.0) * c2q * (next_estimates**-2.5 - estimates**-2.5)
        ) / w1
    else:
        # Integrate the growth phase of ODE (16) with the same trapezoid
        # rule as the loop implementation, only where the estimate grows
        # and one linspace axis per chunk of those elements.
        lower, upper = estimates[grows], next_estimates[grows]
        integrals = np.empty_like(lower)
        for start in range(0, lower.size, _ODE_CHUNK):
            chunk = slice(start, start + _ODE_CHUNK)
            grid = np.linspace(lower[chunk], upper[chunk], ode_steps, axis=0)
            inverse_rate = 1.0 / np.asarray(
                formula.rate_of_interval(grid), dtype=float
            )
            integrals[chunk] = np.trapezoid(inverse_rate, grid, axis=0)
        growth_time = np.zeros_like(next_estimates)
        growth_time[grows] = integrals / w1
    linear_time = (next_estimates - estimates) / (w1 * rates)
    corrected = np.maximum(durations - (linear_time - growth_time), _DURATION_FLOOR)
    durations = np.where(grows, corrected, durations)
    return rates, durations


def vectorized_control_trace(
    formula: LossThroughputFormula,
    intervals: Sequence[float],
    weights: Sequence[float],
    comprehensive: bool = False,
    ode_steps: int = 256,
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
        float(weight_array[0]), comprehensive, ode_steps,
    )
    return ControlTrace(
        intervals=kept, estimates=estimates, rates=rates, durations=durations
    )


def vectorized_control_summaries(
    formula: LossThroughputFormula,
    intervals: np.ndarray,
    weights: Sequence[float],
    comprehensive: bool = False,
    ode_steps: int = 256,
) -> Dict[str, np.ndarray]:
    """Summarise a stack of independent runs in shared passes.

    ``intervals`` has shape ``(runs, num_events + L)``; each row is one
    independent interval sequence.  Returns per-row arrays with the same
    statistics the scalar Monte-Carlo entry points report:
    ``throughput``, ``normalized_throughput``, ``loss_event_rate``,
    ``interval_estimate_covariance``, ``estimator_cv``.
    """
    array = np.asarray(intervals, dtype=float)
    if array.ndim != 2:
        raise ValueError("intervals must be a 2-D (runs, events) array")
    kept, estimates, candidates = sliding_estimates(array, weights)
    weight_array = _normalized_weights(weights)
    rates, durations = evaluate_control_arrays(
        formula, kept, estimates, candidates,
        float(weight_array[0]), comprehensive, ode_steps,
    )
    return summarize_rows(formula, kept, estimates, durations)


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
