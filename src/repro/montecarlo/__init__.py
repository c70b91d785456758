"""Numerical ("designed") experiments of the paper, Section V-A.1.

The kernels behind Monte-Carlo and analytic evaluation of the basic and
comprehensive controls: the vectorised control kernel and the
Proposition 1/3 row kernels, plus the one-run ``simulate_*_control``
wrappers.  Figures 3 and 4 are grids of such points, run as
:class:`~repro.experiments.spec.ExperimentSpec` campaigns (the
``fig3-*`` / ``fig4-*`` presets) or as one
:func:`repro.api.simulate_batch` call.
"""

from .basic import BasicControlResult, simulate_basic_control
from .comprehensive import ComprehensiveControlResult, simulate_comprehensive_control
from .vectorized import (
    growth_corrections,
    vectorized_control_summaries,
    vectorized_control_trace,
)
from .vectorized_analytic import (
    affine_basic_throughput_rows,
    analytic_window_estimates,
    basic_throughput_rows,
    comprehensive_throughput_rows,
    stratified_representatives,
)

__all__ = [
    "vectorized_control_trace",
    "vectorized_control_summaries",
    "growth_corrections",
    "analytic_window_estimates",
    "basic_throughput_rows",
    "comprehensive_throughput_rows",
    "stratified_representatives",
    "affine_basic_throughput_rows",
    "BasicControlResult",
    "simulate_basic_control",
    "ComprehensiveControlResult",
    "simulate_comprehensive_control",
]
