"""Trace-driven loss-event interval process.

Wraps a recorded sequence of loss-event intervals (e.g. extracted from a
packet-level simulation by :mod:`repro.measurement.lossevents`, or read
from a measurement file) so it can drive the controls through the same
:class:`~repro.lossprocess.base.LossProcess` interface as the synthetic
models.  Unlike :class:`~repro.lossprocess.iid.EmpiricalIntervals`, the
ordering -- and hence the autocorrelation structure relevant to condition
(C1) -- is preserved.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .base import LossProcess

__all__ = ["TraceIntervals", "load_intervals"]


class TraceIntervals(LossProcess):
    """Replays a recorded loss-event interval sequence in order.

    Sampling more intervals than the trace contains wraps around to the
    beginning (the trace is treated as one period of a stationary cycle),
    with the starting offset chosen uniformly at random so that repeated
    draws are not identical.
    """

    # Replay preserves the recorded ordering (and autocorrelation), so
    # the factorised analytic paths do not apply.
    is_iid = False

    def __init__(self, intervals: Sequence[float]) -> None:
        values = np.asarray(list(intervals), dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("intervals must be a non-empty 1-D sequence")
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError("intervals must be strictly positive and finite")
        self._values = values

    @property
    def intervals(self) -> np.ndarray:
        """The recorded intervals (copy)."""
        return self._values.copy()

    def __len__(self) -> int:
        return int(self._values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceIntervals):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    @property
    def mean_interval(self) -> float:
        return float(np.mean(self._values))

    def coefficient_of_variation(self) -> float:
        return float(np.std(self._values) / np.mean(self._values))

    def autocovariance(self, lag: int) -> float:
        """Empirical autocovariance of the intervals at the given lag."""
        if lag < 0:
            raise ValueError("lag must be non-negative")
        values = self._values
        if lag >= values.size:
            return 0.0
        centered = values - values.mean()
        if lag == 0:
            return float(np.mean(centered**2))
        return float(np.mean(centered[:-lag] * centered[lag:]))

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        start = int(rng.integers(0, self._values.size))
        indices = (start + np.arange(count)) % self._values.size
        return self._values[indices]


def load_intervals(path: str) -> TraceIntervals:
    """Load loss-event intervals from a whitespace/newline-separated file.

    Lines starting with ``#`` are treated as comments.  Returns a
    :class:`TraceIntervals` process.
    """
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            values.extend(float(token) for token in stripped.split())
    if not values:
        raise ValueError(f"no interval values found in {path!r}")
    return TraceIntervals(values)
