"""Estimator weight profiles as registrable components.

The moving-average estimator (equation (2) of the paper) is parameterised
by its weight vector ``(w_1, ..., w_L)``.  Three profiles cover the
paper's experiments and the obvious ablations:

* :class:`TfrcWeightProfile` -- the RFC 3448 profile (constant over the
  recent half of the window, linear decay over the older half), the
  default everywhere;
* :class:`UniformWeightProfile` -- the plain moving average ``w_l = 1/L``;
* :class:`CustomWeightProfile` -- explicit weights, for arbitrary
  ablations expressed purely as config data.

All profiles are frozen dataclasses whose ``weights()`` method returns
the normalised numpy vector consumed by the controls, and all of them
round-trip exactly through :data:`repro.api.WEIGHT_PROFILES`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..core.estimator import check_history_length, tfrc_weights, uniform_weights

__all__ = [
    "WeightProfile",
    "TfrcWeightProfile",
    "UniformWeightProfile",
    "CustomWeightProfile",
]


class WeightProfile(abc.ABC):
    """A declarative description of an estimator weight vector."""

    @abc.abstractmethod
    def weights(self) -> np.ndarray:
        """Return the normalised weights ``(w_1, ..., w_L)``."""

    @property
    def history_length(self) -> int:
        """The window length ``L``."""
        return int(self.weights().size)


@dataclass(frozen=True)
class TfrcWeightProfile(WeightProfile):
    """The TFRC (RFC 3448) weight profile for a window of ``L`` intervals."""

    history_length: int = 8

    def __post_init__(self) -> None:
        length = check_history_length(self.history_length)
        object.__setattr__(self, "history_length", length)

    def weights(self) -> np.ndarray:
        return tfrc_weights(self.history_length)


@dataclass(frozen=True)
class UniformWeightProfile(WeightProfile):
    """Equal weights ``w_l = 1/L`` (the plain moving average)."""

    history_length: int = 8

    def __post_init__(self) -> None:
        length = check_history_length(self.history_length)
        object.__setattr__(self, "history_length", length)

    def weights(self) -> np.ndarray:
        return uniform_weights(self.history_length)


@dataclass(frozen=True)
class CustomWeightProfile(WeightProfile):
    """Explicit estimator weights, normalised to sum to one."""

    raw_weights: Tuple[float, ...]

    def __init__(self, raw_weights: Sequence[float]) -> None:
        values = tuple(float(value) for value in raw_weights)
        if not values:
            raise ValueError("raw_weights must be non-empty")
        if any(value <= 0.0 for value in values):
            raise ValueError("all weights must be strictly positive")
        object.__setattr__(self, "raw_weights", values)

    def weights(self) -> np.ndarray:
        array = np.asarray(self.raw_weights, dtype=float)
        return array / array.sum()
