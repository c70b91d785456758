"""Palm-calculus and statistics substrate.

Event versus time averages, the Palm inversion formula, Feller-paradox
diagnostics, covariance/autocovariance estimators, and the bin-based
estimation methodology used in the paper's experiments.
"""

from .estimators import (
    event_average,
    feller_gap,
    intensity,
    length_biased_average,
    palm_inversion_throughput,
    time_average_piecewise_constant,
)
from .statistics import (
    BinnedEstimate,
    autocorrelation,
    autocovariance,
    binned_estimates,
    coefficient_of_variation,
    correlation,
    covariance,
    mean_confidence_interval,
    split_into_bins,
)

__all__ = [
    "event_average",
    "time_average_piecewise_constant",
    "palm_inversion_throughput",
    "intensity",
    "length_biased_average",
    "feller_gap",
    "covariance",
    "correlation",
    "autocovariance",
    "autocorrelation",
    "coefficient_of_variation",
    "split_into_bins",
    "BinnedEstimate",
    "binned_estimates",
    "mean_confidence_interval",
]
