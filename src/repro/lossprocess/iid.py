"""Independent, identically distributed loss-event interval models.

The paper's numerical experiments (Section V-A.1) draw the loss-event
intervals as an i.i.d. sequence with a *shifted exponential* density::

    mu(x) = a exp(-a (x - x0)),   x >= x0 >= 0

so that ``E[theta_0] = x0 + 1/a = 1/p`` and the squared coefficient of
variation is ``(1/a) / (x0 + 1/a)`` -- two degrees of freedom that let the
experiments fix the coefficient of variation while sweeping ``p`` and vice
versa.  The skewness and kurtosis of the distribution do not depend on
``(x0, a)`` (they equal 2 and 6), which the paper highlights as a desirable
property of the design.

This module provides that model plus a handful of other i.i.d. models used
in tests and ablations (deterministic, gamma, lognormal, empirical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import LossProcess

__all__ = [
    "ShiftedExponentialIntervals",
    "DeterministicIntervals",
    "GammaIntervals",
    "LognormalIntervals",
    "EmpiricalIntervals",
]


@dataclass(frozen=True)
class ShiftedExponentialIntervals(LossProcess):
    """Shifted-exponential i.i.d. loss-event intervals (paper Section V-A.1).

    Parameters
    ----------
    shift:
        The constant offset ``x0 >= 0``.
    rate:
        The exponential rate ``a > 0``.
    """

    shift: float
    rate: float

    def __post_init__(self) -> None:
        # Each check states the range to hold: a nan fails any comparison.
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(
                f"shift must be non-negative and finite, got {self.shift}"
            )
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    # ------------------------------------------------------------------
    # Construction helpers mirroring the paper's parameterisation
    # ------------------------------------------------------------------
    @classmethod
    def from_loss_rate_and_cv(
        cls, loss_event_rate: float, coefficient_of_variation: float
    ) -> "ShiftedExponentialIntervals":
        """Build the model from ``p`` and ``cv[theta_0]``.

        The paper fixes ``cv`` and sweeps ``p`` (Figure 3) or fixes ``p``
        and sweeps ``cv`` (Figure 4).  Since the standard deviation of the
        shifted exponential is ``1/a`` and its mean is ``x0 + 1/a = 1/p``,
        the coefficient of variation is ``cv = (1/a) / (x0 + 1/a)``, hence
        ``1/a = cv / p`` and ``x0 = (1 - cv)/p``.  (The paper's Section
        V-A.1 writes this relation for ``cv^2``; the construction used here
        makes the *actual* coefficient of variation of the samples equal to
        the requested value, which is what Figure 4's x-axis plots.)

        Parameters
        ----------
        loss_event_rate:
            The target ``p`` in (0, 1].
        coefficient_of_variation:
            The target ``cv[theta_0]`` in (0, 1]; ``cv = 1`` is the plain
            exponential, ``cv -> 0`` approaches a deterministic interval.
        """
        if not 0.0 < loss_event_rate <= 1.0:
            raise ValueError("loss_event_rate must be in (0, 1]")
        if not 0.0 < coefficient_of_variation <= 1.0:
            raise ValueError("coefficient_of_variation must be in (0, 1]")
        mean = 1.0 / loss_event_rate
        exponential_mean = coefficient_of_variation * mean
        shift = mean - exponential_mean
        return cls(shift=shift, rate=1.0 / exponential_mean)

    # ------------------------------------------------------------------
    # Moments
    # ------------------------------------------------------------------
    @property
    def mean_interval(self) -> float:
        return self.shift + 1.0 / self.rate

    @property
    def variance(self) -> float:
        """Variance of ``theta_0`` (only the exponential part contributes)."""
        return 1.0 / self.rate**2

    def coefficient_of_variation(self) -> float:
        return math.sqrt(self.variance) / self.mean_interval

    @property
    def skewness(self) -> float:
        """Skewness of the shifted exponential (always 2)."""
        return 2.0

    @property
    def excess_kurtosis(self) -> float:
        """Excess kurtosis of the shifted exponential (always 6)."""
        return 6.0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        return self.shift + rng.exponential(scale=1.0 / self.rate, size=count)


@dataclass(frozen=True)
class DeterministicIntervals(LossProcess):
    """Degenerate loss process: every interval equals ``value`` packets.

    Useful as the boundary case of Theorem 2's condition (V): with a
    constant interval the estimator has zero variance and the strict
    non-conservativeness conclusion does not apply.
    """

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"value must be positive and finite, got {self.value}")

    @property
    def mean_interval(self) -> float:
        return self.value

    def coefficient_of_variation(self) -> float:
        return 0.0

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        return np.full(count, self.value, dtype=float)


@dataclass(frozen=True)
class GammaIntervals(LossProcess):
    """Gamma-distributed i.i.d. loss-event intervals.

    Parameterised by mean and coefficient of variation; with ``cv < 1`` it
    is less variable than exponential, with ``cv > 1`` more variable, which
    makes it a convenient knob for the "variability of the estimator"
    statements of Claim 1 beyond the shifted-exponential family.
    """

    mean: float
    cv: float

    def __post_init__(self) -> None:
        for name in ("mean", "cv"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.mean * self.cv * self.cv):
            raise ValueError(
                f"cv must give a finite scale mean*cv**2, got {self.cv}"
            )

    @property
    def mean_interval(self) -> float:
        return self.mean

    @property
    def shape(self) -> float:
        """Gamma shape parameter ``k = 1/cv^2``."""
        return 1.0 / self.cv**2

    @property
    def scale(self) -> float:
        """Gamma scale parameter ``theta = mean / k``."""
        return self.mean / self.shape

    def coefficient_of_variation(self) -> float:
        return self.cv

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        sample = rng.gamma(shape=self.shape, scale=self.scale, size=count)
        # Guard against zero draws from extremely small shape values.
        return np.maximum(sample, 1e-12)


@dataclass(frozen=True)
class LognormalIntervals(LossProcess):
    """Lognormal i.i.d. loss-event intervals parameterised by mean and cv."""

    mean: float
    cv: float

    def __post_init__(self) -> None:
        for name in ("mean", "cv"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.cv * self.cv):
            raise ValueError(f"cv must give a finite cv**2, got {self.cv}")

    @property
    def mean_interval(self) -> float:
        return self.mean

    @property
    def sigma(self) -> float:
        """Log-scale standard deviation ``sqrt(ln(1 + cv^2))``."""
        return math.sqrt(math.log(1.0 + self.cv**2))

    @property
    def mu(self) -> float:
        """Log-scale mean ``ln(mean) - sigma^2/2``."""
        return math.log(self.mean) - 0.5 * self.sigma**2

    def coefficient_of_variation(self) -> float:
        return self.cv

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        return rng.lognormal(mean=self.mu, sigma=self.sigma, size=count)


class EmpiricalIntervals(LossProcess):
    """Resamples loss-event intervals from an observed trace (bootstrap).

    Sampling is i.i.d. from the empirical distribution, which destroys any
    autocorrelation present in the original trace -- by design, so that the
    covariance condition (C1) holds exactly and Theorem 1 applies.  Use
    :class:`repro.lossprocess.trace.TraceIntervals` to preserve ordering.
    """

    def __init__(self, observations: Sequence[float]) -> None:
        values = np.asarray(list(observations), dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("observations must be a non-empty 1-D sequence")
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError("observations must be strictly positive and finite")
        self._values = values

    @property
    def observations(self) -> np.ndarray:
        """The underlying observations (copy)."""
        return self._values.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmpiricalIntervals):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    @property
    def mean_interval(self) -> float:
        return float(np.mean(self._values))

    def coefficient_of_variation(self) -> float:
        return float(np.std(self._values) / np.mean(self._values))

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        return rng.choice(self._values, size=count, replace=True)
