"""Numerical ("designed") experiments of the paper, Section V-A.1.

Monte-Carlo and analytic evaluation of the basic and comprehensive
controls under i.i.d. loss processes, plus the parameter sweeps that
reproduce Figures 3 and 4.
"""

from .basic import BasicControlResult, simulate_basic_control
from .comprehensive import ComprehensiveControlResult, simulate_comprehensive_control
from .sweeps import (
    FIGURE3_CV,
    FIGURE3_HISTORY_LENGTHS,
    FIGURE3_LOSS_RATES,
    FIGURE4_CVS,
    SweepPoint,
    derive_point_seed,
    sweep_coefficient_of_variation,
    sweep_history_length,
    sweep_loss_event_rate,
)
from .vectorized import (
    vectorized_control_summaries,
    vectorized_control_trace,
)
from .vectorized_analytic import (
    affine_basic_throughput_rows,
    analytic_window_estimates,
    basic_throughput_rows,
    comprehensive_throughput_rows,
    inverse_rate_of_interval,
    stratified_representatives,
)

__all__ = [
    "vectorized_control_trace",
    "vectorized_control_summaries",
    "inverse_rate_of_interval",
    "analytic_window_estimates",
    "basic_throughput_rows",
    "comprehensive_throughput_rows",
    "stratified_representatives",
    "affine_basic_throughput_rows",
    "BasicControlResult",
    "simulate_basic_control",
    "ComprehensiveControlResult",
    "simulate_comprehensive_control",
    "SweepPoint",
    "derive_point_seed",
    "sweep_loss_event_rate",
    "sweep_coefficient_of_variation",
    "sweep_history_length",
    "FIGURE3_CV",
    "FIGURE3_LOSS_RATES",
    "FIGURE3_HISTORY_LENGTHS",
    "FIGURE4_CVS",
]
