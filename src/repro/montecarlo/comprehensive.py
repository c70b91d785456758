"""Monte-Carlo evaluation of the comprehensive control.

Companion to :mod:`repro.montecarlo.basic` for the comprehensive control
(equation (4) of the paper).  Provides both a simulation path (the
control over one sampled interval sequence, a one-row call into the
vectorised kernel of :mod:`repro.montecarlo.vectorized`, with
:class:`~repro.core.control.ComprehensiveControl` as its test oracle)
and an analytic path evaluating Proposition 3's exact throughput
expression by Monte-Carlo integration over independent estimator
windows, which is valid for i.i.d. loss processes with SQRT or
PFTK-simplified formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.formulas import (
    LossThroughputFormula,
    PftkSimplifiedFormula,
    SqrtFormula,
)
from ..core.throughput import proposition3_correction
from ..lossprocess.base import LossProcess, make_rng
from .basic import BasicControlResult, _resolve_weights, _simulate_control

__all__ = [
    "ComprehensiveControlResult",
    "simulate_comprehensive_control",
    "analytic_comprehensive_throughput",
]


@dataclass(frozen=True)
class ComprehensiveControlResult(BasicControlResult):
    """Summary of one Monte-Carlo run of the comprehensive control (same
    fields as :class:`~repro.montecarlo.basic.BasicControlResult`)."""


def simulate_comprehensive_control(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_events: int = 50_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> ComprehensiveControlResult:
    """Run the comprehensive control over a sampled interval sequence.

    Same parameters and sampling as
    :func:`~repro.montecarlo.basic.simulate_basic_control`.
    """
    return ComprehensiveControlResult(
        num_events=num_events,
        **_simulate_control(
            formula, loss_process, num_events, weights, history_length, seed,
            comprehensive=True,
        ),
    )


def analytic_comprehensive_throughput(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_samples: int = 200_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> float:
    """Evaluate Proposition 3 by Monte-Carlo integration.

    Draws, for each sample, a window of ``L`` past intervals plus the next
    interval ``theta_0``; forms ``theta_hat_0`` from the window and
    ``theta_hat_1`` by shifting ``theta_0`` into the window, then applies
    the exact correction ``V_0 1{theta_hat_1 > theta_hat_0}``.  Valid for
    i.i.d. loss processes and SQRT / PFTK-simplified formulas.
    """
    if not isinstance(formula, (SqrtFormula, PftkSimplifiedFormula)):
        raise TypeError(
            "Proposition 3's closed form requires SQRT or PFTK-simplified"
        )
    if num_samples < 100:
        raise ValueError("num_samples must be at least 100")
    weights = _resolve_weights(weights, history_length)
    weight_array = np.asarray(list(weights), dtype=float)
    weight_array = weight_array / weight_array.sum()
    window = weight_array.size
    rng = make_rng(seed)
    window_draws = loss_process.sample_intervals(num_samples * window, rng).reshape(
        num_samples, window
    )
    intervals = loss_process.sample_intervals(num_samples, rng)
    estimates_now = window_draws @ weight_array
    # Shift theta_0 into the window to obtain theta_hat_1.
    shifted = np.concatenate(
        [intervals[:, None], window_draws[:, :-1]], axis=1
    )
    estimates_next = shifted @ weight_array
    rates = np.asarray(formula.rate_of_interval(estimates_now), dtype=float)
    corrections = proposition3_correction(
        formula, estimates_now, estimates_next, float(weight_array[0])
    )
    mean_interval = float(np.mean(intervals))
    mean_duration = float(np.mean(intervals / rates - corrections))
    if mean_duration <= 0.0:
        raise ValueError("mean corrected duration is non-positive")
    return mean_interval / mean_duration
