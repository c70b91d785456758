"""Statistical helpers: covariance, autocovariance, binning, intervals.

These utilities back the empirical evaluation machinery: the covariance
conditions (C1), (C2) (Figure 10's normalised covariance is
:meth:`repro.core.estimator.EstimatorTrace.normalized_covariance`), the
per-bin estimates used by the lab/Internet experiment methodology
(Section V-A.3 computes estimates over 6 consecutive bins of an
experiment), and simple confidence intervals on the resulting binned
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
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


def covariance(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample covariance (ddof = 1) between two equal-length sequences."""
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    if x_array.shape != y_array.shape or x_array.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    if x_array.size < 2:
        return 0.0
    return float(np.cov(x_array, y_array, ddof=1)[0, 1])


def correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient; zero if either input is constant."""
    x_array = np.asarray(x, dtype=float)
    y_array = np.asarray(y, dtype=float)
    if x_array.shape != y_array.shape or x_array.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    if x_array.size < 2:
        return 0.0
    x_std = float(np.std(x_array))
    y_std = float(np.std(y_array))
    # lint: allow[hygiene-float-eq] np.std returns exact 0.0 for constants
    if x_std == 0.0 or y_std == 0.0:
        return 0.0
    return float(np.corrcoef(x_array, y_array)[0, 1])


def autocovariance(values: Sequence[float], lag: int) -> float:
    """Empirical autocovariance at the given lag (biased normalisation).

    Used to evaluate ``cov[theta_0, theta_{-l}]`` in the weighted sum of
    equation (11).
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if lag >= array.size:
        return 0.0
    centered = array - array.mean()
    if lag == 0:
        return float(np.mean(centered**2))
    return float(np.mean(centered[:-lag] * centered[lag:]))


def autocorrelation(values: Sequence[float], lag: int) -> float:
    """Autocovariance normalised by the variance; zero for constant input."""
    variance = autocovariance(values, 0)
    # lint: allow[hygiene-float-eq] exact zero-variance guard
    if variance == 0.0:
        return 0.0
    return autocovariance(values, lag) / variance


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation divided by the mean."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    mean = float(np.mean(array))
    # lint: allow[hygiene-float-eq] exact zero-mean guard (division)
    if mean == 0.0:
        raise ValueError("mean is zero; coefficient of variation undefined")
    return float(np.std(array) / mean)


def split_into_bins(values: Sequence[float], num_bins: int) -> List[np.ndarray]:
    """Split a sequence into ``num_bins`` consecutive, nearly equal chunks.

    Mirrors the experimental methodology of Section V-A.3 (estimates
    computed over 6 consecutive bins after discarding a warm-up prefix).
    """
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if num_bins > array.size:
        raise ValueError("cannot create more bins than there are values")
    return [chunk for chunk in np.array_split(array, num_bins) if chunk.size > 0]


@dataclass(frozen=True)
class BinnedEstimate:
    """Mean and dispersion of a statistic computed over consecutive bins."""

    per_bin: Tuple[float, ...]
    mean: float
    standard_error: float

    @property
    def num_bins(self) -> int:
        return len(self.per_bin)


def binned_estimates(values: Sequence[float], num_bins: int) -> BinnedEstimate:
    """Compute the per-bin means of a sequence and their standard error."""
    bins = split_into_bins(values, num_bins)
    per_bin = tuple(float(np.mean(chunk)) for chunk in bins)
    mean = float(np.mean(per_bin))
    if len(per_bin) > 1:
        standard_error = float(np.std(per_bin, ddof=1) / np.sqrt(len(per_bin)))
    else:
        standard_error = 0.0
    return BinnedEstimate(per_bin=per_bin, mean=mean, standard_error=standard_error)


def mean_confidence_interval(
    values: Sequence[float], z_score: float = 1.96
) -> Tuple[float, float, float]:
    """Return ``(mean, lower, upper)`` for a normal-approximation CI."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    mean = float(np.mean(array))
    if array.size < 2:
        return mean, mean, mean
    half_width = z_score * float(np.std(array, ddof=1) / np.sqrt(array.size))
    return mean, mean - half_width, mean + half_width
