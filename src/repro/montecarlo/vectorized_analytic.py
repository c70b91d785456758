"""Vectorised analytic (Proposition 1/3) evaluation over parameter grids.

The Proposition 1/3 throughput expressions are evaluated by Monte-Carlo
integration over independent draws of the estimator window.  This module
is the one implementation of those integrals, the analytic counterpart
of :mod:`repro.montecarlo.vectorized`: ``simulate(method="analytic")``
makes a one-row call, ``simulate_batch`` evaluates whole grids of points
in shared passes.

* :func:`analytic_window_estimates` turns stacked window draws into the
  ``(theta_hat_0, theta_hat_1)`` sample arrays, so a matched-seed batch
  reproduces ``simulate()`` to numerical precision;
* :func:`basic_throughput_rows` / :func:`comprehensive_throughput_rows`
  evaluate Proposition 1 / Proposition 3 for every row of a
  ``(points, samples)`` stack at once, for any formula: Proposition 3
  subtracts the correction ``V 1{theta_hat_1 > theta_hat_0}`` of
  :func:`repro.montecarlo.vectorized.growth_corrections`, the one the
  Monte-Carlo control kernel subtracts per interval;
* :func:`stratified_representatives` + :func:`affine_basic_throughput_rows`
  are the shared-noise fast path for the shifted-exponential (p, cv)
  grid form.

The shared-noise fast path rests on two exact identities for i.i.d.
loss processes:

1. the window ``(theta_-1, ..., theta_-L)`` is independent of
   ``theta_0``, so Proposition 1's denominator factorises,
   ``E[theta_0 / f(1/theta_hat_0)] = E[theta_0] E[g(theta_hat_0)]``,
   and ``E[theta_0]`` is known in closed form for the affine family
   (``shift + scale`` for the shifted exponential) -- the throughput
   reduces to ``1 / E[g(theta_hat_0)]``;
2. a unit-sum moving average commutes with affine maps, so one base
   block of unit-exponential windows yields every grid point's
   ``theta_hat_0`` sample by an affine rescale.

``E[g(theta_hat_0)]`` is then evaluated over *equal-probability strata*
of the shared base sample: the sorted sample is compressed into block
means (one representative per quantile block), and ``g`` -- smooth and
monotone for every registered formula, a closed form where the formula
has one -- is evaluated once per representative instead of once per
sample.  With thousands of strata the
compression error is far below the Monte-Carlo noise of the sample
itself, while the formula evaluation cost drops by the block size; the
grid-level speedup is asserted by
``benchmarks/test_bench_fig03_analytic_batch.py``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core.formulas import LossThroughputFormula
from .vectorized import growth_corrections

__all__ = [
    "analytic_window_estimates",
    "basic_throughput_rows",
    "comprehensive_throughput_rows",
    "stratified_representatives",
    "affine_basic_throughput_rows",
]

#: Default number of equal-probability strata for the shared-noise fast
#: path.  The compression error scales like the squared block width of
#: the empirical distribution; at 2048 strata it is orders of magnitude
#: below the Monte-Carlo noise of any practical sample size.
DEFAULT_STRATA = 2048


def analytic_window_estimates(
    window_draws: np.ndarray,
    intervals: np.ndarray,
    weights: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(estimates, next_estimates)`` from stacked window draws.

    ``window_draws`` has shape ``(..., samples, L)`` (independent draws
    of the estimator window, most recent interval first) and
    ``intervals`` shape ``(..., samples)`` (the matching draws of
    ``theta_0``).  ``estimates`` is ``theta_hat_0``; ``next_estimates``
    is ``theta_hat_1``, obtained by shifting ``theta_0`` into the
    window.
    """
    draws = np.asarray(window_draws, dtype=float)
    theta = np.asarray(intervals, dtype=float)
    if draws.shape[:-1] != theta.shape:
        raise ValueError(
            "window_draws and intervals disagree on the sample shape: "
            f"{draws.shape} vs {theta.shape}"
        )
    weight_array = np.asarray(list(weights), dtype=float)
    if weight_array.ndim != 1 or weight_array.size != draws.shape[-1]:
        raise ValueError("weights must be 1-D with one entry per window slot")
    weight_array = weight_array / weight_array.sum()
    estimates = draws @ weight_array
    shifted = np.concatenate([theta[..., None], draws[..., :-1]], axis=-1)
    next_estimates = shifted @ weight_array
    return estimates, next_estimates


def basic_throughput_rows(
    formula: LossThroughputFormula,
    intervals: np.ndarray,
    estimates: np.ndarray,
) -> np.ndarray:
    """Proposition 1 for every row of a ``(points, samples)`` stack.

    ``E[theta_0] / E[theta_0 / f(1/theta_hat_0)]`` along the last axis.
    """
    theta = np.asarray(intervals, dtype=float)
    with telemetry.span(
        "kernel.analytic.basic",
        rows=1 if theta.ndim == 1 else theta.shape[0],
        items=theta.size,
    ):
        rates = np.asarray(formula.rate_of_interval(estimates), dtype=float)
        mean_interval = theta.mean(axis=-1)
        mean_duration = (theta / rates).mean(axis=-1)
        return mean_interval / mean_duration


def comprehensive_throughput_rows(
    formula: LossThroughputFormula,
    intervals: np.ndarray,
    estimates: np.ndarray,
    next_estimates: np.ndarray,
    first_weight: float,
) -> np.ndarray:
    """Proposition 3 for every row of a ``(points, samples)`` stack.

    ``E[theta_0] / (E[theta_0 / f(1/theta_hat_0)] - E[V_0 1{theta_hat_1 >
    theta_hat_0}])`` along the last axis, with the per-sample correction
    of :func:`~repro.montecarlo.vectorized.growth_corrections`.
    """
    theta = np.asarray(intervals, dtype=float)
    now = np.asarray(estimates, dtype=float)
    nxt = np.asarray(next_estimates, dtype=float)
    with telemetry.span(
        "kernel.analytic.comprehensive",
        rows=1 if theta.ndim == 1 else theta.shape[0],
        items=theta.size,
    ):
        rates = np.asarray(formula.rate_of_interval(now), dtype=float)
        corrections = growth_corrections(formula, now, nxt, rates, first_weight)
        mean_interval = theta.mean(axis=-1)
        mean_duration = (theta / rates - corrections).mean(axis=-1)
        if np.any(mean_duration <= 0.0):
            raise ValueError("mean corrected duration is non-positive")
        return mean_interval / mean_duration


def stratified_representatives(
    values: np.ndarray, num_strata: int = DEFAULT_STRATA
) -> Tuple[np.ndarray, np.ndarray]:
    """Compress a sample into equal-probability block means.

    Returns ``(representatives, probabilities)``: the sorted sample is
    split into ``num_strata`` quantile blocks (of near-equal size), and
    each block is represented by its mean with probability weight
    ``block size / sample size``.  For a smooth integrand ``g``,
    ``sum(probabilities * g(representatives))`` approximates the sample
    mean of ``g`` with error quadratic in the block widths.
    """
    sample = np.array(values, dtype=float).ravel()  # owned copy
    if sample.size == 0:
        raise ValueError("values must be non-empty")
    if num_strata < 1:
        raise ValueError("num_strata must be positive")
    count = sample.size
    strata = min(int(num_strata), count)
    sample.sort()
    edges = (np.arange(strata) * count) // strata
    sums = np.add.reduceat(sample, edges)
    sizes = np.diff(np.append(edges, count))
    return sums / sizes, sizes / float(count)


def affine_basic_throughput_rows(
    formula: LossThroughputFormula,
    shifts: np.ndarray,
    scales: np.ndarray,
    representatives: np.ndarray,
    probabilities: np.ndarray,
) -> np.ndarray:
    """Proposition 1 throughput for a family of affine grid points.

    Each grid point's estimator law is ``shift + scale * base`` for a
    shared base sample (summarised by stratified ``representatives`` /
    ``probabilities``); by the i.i.d. factorisation its Proposition 1
    throughput is ``1 / E[g(theta_hat_0)]``, evaluated here for all
    points in one broadcast pass over the strata.
    """
    shifts = np.asarray(shifts, dtype=float)
    scales = np.asarray(scales, dtype=float)
    with telemetry.span(
        "kernel.analytic.affine",
        rows=shifts.size,
        strata=np.size(representatives),
        items=shifts.size * np.size(representatives),
    ):
        estimates = (
            shifts[:, None] + scales[:, None] * representatives[None, :]
        )
        g = formula.g(estimates)
        return 1.0 / (g @ np.asarray(probabilities, dtype=float))
