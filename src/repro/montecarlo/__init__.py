"""Numerical ("designed") experiments of the paper, Section V-A.1.

The kernels behind Monte-Carlo and analytic evaluation of the basic and
comprehensive controls: the vectorised control kernel and the
Proposition 1/3 row kernels.  Nothing here samples a loss process: one
point runs through :func:`repro.api.simulate`, a grid through
:func:`repro.api.simulate_batch`, and Figures 3 and 4 are grids of such
points, run as :class:`~repro.experiments.spec.ExperimentSpec`
campaigns (the ``fig3-*`` / ``fig4-*`` presets).
"""

from .vectorized import growth_corrections, vectorized_control_trace
from .vectorized_analytic import (
    affine_basic_throughput_rows,
    analytic_window_estimates,
    basic_throughput_rows,
    comprehensive_throughput_rows,
    stratified_representatives,
)

__all__ = [
    "vectorized_control_trace",
    "growth_corrections",
    "analytic_window_estimates",
    "basic_throughput_rows",
    "comprehensive_throughput_rows",
    "stratified_representatives",
    "affine_basic_throughput_rows",
]
