"""Monte-Carlo evaluation of the comprehensive control.

Companion to :mod:`repro.montecarlo.basic` for the comprehensive control
(equation (4) of the paper): the control over one sampled interval
sequence, a one-row call into the vectorised kernel of
:mod:`repro.montecarlo.vectorized`, with
:class:`~repro.core.control.ComprehensiveControl` as its test oracle.
Proposition 3's exact throughput expression (i.i.d. loss processes,
any formula) is evaluated by
``repro.api.simulate(SimConfig(method="analytic", control="comprehensive",
...))`` over :func:`~repro.montecarlo.vectorized_analytic.
comprehensive_throughput_rows`, which subtracts the same correction
``V_0`` as the control kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.formulas import LossThroughputFormula
from ..lossprocess.base import LossProcess
from .basic import BasicControlResult, _simulate_control

__all__ = [
    "ComprehensiveControlResult",
    "simulate_comprehensive_control",
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

