"""Monte-Carlo evaluation of the basic control ("numerical experiments").

Section V-A.1 of the paper validates Claim 1 with designed numerical
experiments: the loss-event intervals are drawn i.i.d. from a shifted
exponential, the basic control is run over them, and the normalized
throughput ``x_bar / f(p)`` is reported as a function of ``p`` (Figure 3)
and of the coefficient of variation ``cv[theta_0]`` (Figure 4), for
estimator window lengths ``L in {1, 2, 4, 8, 16}``.

:func:`simulate_basic_control` runs the control over one sampled
interval sequence, as a one-row call into the vectorised kernel of
:mod:`repro.montecarlo.vectorized` (the per-event loop
:class:`~repro.core.control.BasicControl` is the test oracle it matches
to numerical precision).  Proposition 1's expectation itself is
evaluated by ``repro.api.simulate(SimConfig(method="analytic", ...))``
over the row kernels of :mod:`repro.montecarlo.vectorized_analytic`; for
i.i.d. intervals both converge to the same value, and the tests assert
their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.estimator import tfrc_weights
from ..core.formulas import LossThroughputFormula
from ..lossprocess.base import LossProcess, make_rng
from .vectorized import vectorized_control_summaries

__all__ = [
    "BasicControlResult",
    "simulate_basic_control",
]


@dataclass(frozen=True)
class BasicControlResult:
    """Summary of one Monte-Carlo run of the basic control.

    Attributes
    ----------
    throughput:
        Long-run throughput in packets per second.
    normalized_throughput:
        ``throughput / f(p)`` with ``p`` the empirical loss-event rate.
    loss_event_rate:
        The empirical loss-event rate ``1 / mean(theta)``.
    interval_estimate_covariance:
        Empirical ``cov[theta_0, theta_hat_0]``.
    estimator_cv:
        Coefficient of variation of the estimator values (Claim 1's
        "variability of theta_hat").
    num_events:
        Number of loss events contributing to the estimate.
    """

    throughput: float
    normalized_throughput: float
    loss_event_rate: float
    interval_estimate_covariance: float
    estimator_cv: float
    num_events: int


def simulate_basic_control(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_events: int = 50_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> BasicControlResult:
    """Run the basic control over a sampled loss-event interval sequence.

    Parameters
    ----------
    formula:
        The loss-throughput formula ``f``.
    loss_process:
        Source of the loss-event intervals.
    num_events:
        Number of loss events to simulate (after estimator warm-up).
    weights:
        Estimator weights; if omitted, the TFRC profile with
        ``history_length`` (default 8) is used.
    history_length:
        Convenience alternative to ``weights``: the TFRC profile of this
        length.
    seed:
        Random seed for reproducibility.
    """
    return BasicControlResult(
        num_events=num_events,
        **_simulate_control(
            formula, loss_process, num_events, weights, history_length, seed,
            comprehensive=False,
        ),
    )


def _resolve_weights(weights, history_length) -> Sequence[float]:
    """The given weights, or the TFRC profile of ``history_length`` (8)."""
    if weights is None:
        return tfrc_weights(history_length if history_length is not None else 8)
    if history_length is not None:
        raise ValueError("pass either weights or history_length, not both")
    return weights


def _simulate_control(
    formula, loss_process, num_events, weights, history_length, seed, comprehensive
) -> Dict[str, float]:
    """The body of both scalar entry points: one seeded draw of
    ``num_events + L`` intervals (the first ``L`` warm up the estimator),
    summarised by a one-row call into the vectorised kernel."""
    if num_events < 10:
        raise ValueError("num_events must be at least 10")
    weights = _resolve_weights(weights, history_length)
    rng = make_rng(seed)
    window = len(list(weights))
    intervals = loss_process.sample_intervals(num_events + window, rng)
    summary = vectorized_control_summaries(
        formula, [intervals], weights, comprehensive=comprehensive
    )
    return {name: float(row[0]) for name, row in summary.items()}

