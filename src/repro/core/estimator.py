"""Loss-event interval estimators.

The paper assumes the sender estimates the expected loss-event interval
``1/p`` with a moving average of the last ``L`` observed loss-event
intervals (equation (2))::

    theta_hat_n = sum_{l=1}^{L} w_l * theta_{n-l}

with positive weights that sum to one (assumption (E): the estimator is
unbiased).  TFRC uses a particular weight profile: the first half of the
weights are equal and the second half decreases linearly to ``1/(L/2+1)``
of the maximum.

This module provides:

* :func:`tfrc_weights` and :func:`uniform_weights` -- weight profiles,
  whose window length passes :func:`check_history_length`,
* :class:`MovingAverageEstimator` -- the estimator itself, in both its
  "at loss events" form (equation (2)) and the "between loss events" form
  used by the comprehensive control (equation (4), including the
  activation condition ``A_t`` and the threshold packet count),
* :class:`EstimatorTrace` -- a convenience container pairing loss-event
  intervals with the estimator values computed from them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = [
    "check_history_length",
    "tfrc_weights",
    "uniform_weights",
    "MovingAverageEstimator",
    "EstimatorTrace",
    "estimate_series",
]


def check_history_length(history_length: int) -> int:
    """Return a window length ``L`` as an ``int``, or raise ``ValueError``.

    ``L`` must be an integer of at least one; a float, a string or a bool
    is rejected rather than truncated.
    """
    if isinstance(history_length, bool) or not isinstance(
        history_length, numbers.Integral
    ):
        raise ValueError(f"history_length must be an integer, got {history_length!r}")
    if history_length < 1:
        raise ValueError(f"history_length must be >= 1, got {history_length}")
    return int(history_length)


def tfrc_weights(history_length: int) -> np.ndarray:
    """Return the TFRC weight profile for a history of ``L`` intervals.

    The TFRC specification (RFC 3448) uses weights that are constant over
    the most recent half of the history and decay linearly over the older
    half.  For ``L = 8`` the unnormalised weights are
    ``(1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2)``.  The returned weights are
    normalised to sum to one, making the estimator unbiased for i.i.d.
    loss-event intervals (assumption (E)).

    Parameters
    ----------
    history_length:
        The window length ``L``; must be a positive integer.
    """
    length = check_history_length(history_length)
    half = length // 2
    raw = np.ones(length, dtype=float)
    tail = length - half
    for index in range(half, length):
        # Linear decay from 1 down to 1/(tail+1) over the older half.
        raw[index] = 1.0 - (index - half + 1) / (tail + 1.0)
    if np.any(raw <= 0.0):
        # For very small L (e.g. L = 1) the construction above could hit
        # zero; fall back to a strictly positive floor.
        raw = np.maximum(raw, 1.0 / (length + 1.0))
    return raw / raw.sum()


def uniform_weights(history_length: int) -> np.ndarray:
    """Return equal weights ``w_l = 1/L`` (the plain moving average)."""
    length = check_history_length(history_length)
    return np.full(length, 1.0 / length)


@dataclass
class EstimatorTrace:
    """Pairs each loss-event interval with the estimator computed before it.

    Attributes
    ----------
    intervals:
        ``theta_n`` for ``n = 0, 1, ...`` -- the loss-event intervals in
        packets.
    estimates:
        ``theta_hat_n`` -- the estimator value in force during interval
        ``n`` (i.e. computed from intervals strictly before ``n``).
    """

    intervals: np.ndarray
    estimates: np.ndarray

    def __post_init__(self) -> None:
        self.intervals = np.asarray(self.intervals, dtype=float)
        self.estimates = np.asarray(self.estimates, dtype=float)
        if self.intervals.shape != self.estimates.shape:
            raise ValueError("intervals and estimates must have the same shape")

    def __len__(self) -> int:
        return self.intervals.shape[0]

    def covariance(self) -> float:
        """Return the empirical ``cov[theta_0, theta_hat_0]`` (condition C1)."""
        if len(self) < 2:
            return 0.0
        return float(np.cov(self.intervals, self.estimates, ddof=1)[0, 1])

    def normalized_covariance(self) -> float:
        """Return ``cov[theta_0, theta_hat_0] * p^2`` as plotted in Fig. 10."""
        mean_interval = float(np.mean(self.intervals))
        if mean_interval <= 0.0:
            return 0.0
        loss_event_rate = 1.0 / mean_interval
        return self.covariance() * loss_event_rate**2


class MovingAverageEstimator:
    """Moving-average estimator of the expected loss-event interval.

    Parameters
    ----------
    weights:
        Positive weights ``(w_1, ..., w_L)``.  They are normalised to sum
        to one so that the estimator is unbiased (assumption (E)).
    initial_interval:
        Value used to pre-fill the history before any loss event has been
        observed.  Defaults to 1 packet, mirroring TFRC's behaviour of
        seeding the history after the first loss event.
    """

    def __init__(
        self,
        weights: Sequence[float],
        initial_interval: float = 1.0,
    ) -> None:
        weight_array = np.asarray(list(weights), dtype=float)
        if weight_array.ndim != 1 or weight_array.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if np.any(weight_array <= 0.0):
            raise ValueError("all weights must be strictly positive")
        if initial_interval <= 0.0:
            raise ValueError("initial_interval must be positive")
        self._weights = weight_array / weight_array.sum()
        self._first_weight = float(self._weights[0])
        self._history: List[float] = [float(initial_interval)] * weight_array.size
        self._initial_interval = float(initial_interval)
        self._refresh()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """The normalised weights ``(w_1, ..., w_L)``."""
        return self._weights.copy()

    @property
    def history_length(self) -> int:
        """The window length ``L``."""
        return self._weights.size

    @property
    def history(self) -> np.ndarray:
        """The last ``L`` loss-event intervals, most recent first."""
        return np.asarray(self._history, dtype=float)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Recompute the cached sums; every history change must call it.

        A rate-based sender reads the estimate on every packet but the
        history changes only at loss events, so both sums are kept as
        plain floats.
        """
        self._estimate = float(np.dot(self._weights, self._history))
        self._tail = float(
            np.dot(self._weights[1:], self._history[: self.history_length - 1])
        )

    def current_estimate(self) -> float:
        """Return ``theta_hat_n`` from the current history (equation (2))."""
        return self._estimate

    def record_interval(self, interval: float) -> float:
        """Record a completed loss-event interval and return the new estimate.

        The most recent interval becomes ``theta_{n-1}`` for the next
        estimate.
        """
        if interval <= 0.0:
            raise ValueError(f"loss-event interval must be positive, got {interval}")
        self._history.insert(0, float(interval))
        del self._history[self.history_length:]
        self._refresh()
        return self._estimate

    def provisional_estimate(self, packets_since_last_loss: float) -> float:
        """Return the comprehensive-control estimate ``theta_hat(t)``.

        Equation (4) of the paper: the open interval ``theta(t)`` (packets
        sent since the last loss event) replaces the most recent history
        entry *only if* that increases the estimate (condition ``A_t``);
        otherwise the estimate stays at ``theta_hat_n``.
        """
        if packets_since_last_loss < 0.0:
            raise ValueError("packets_since_last_loss must be non-negative")
        candidate = self._first_weight * packets_since_last_loss + self._tail
        return max(candidate, self._estimate)

    def activation_threshold(self) -> float:
        """Return the packet count above which the estimate starts growing.

        This is the threshold in the event ``A_t``::

            theta(t) > (theta_hat_n - sum_{l>=2} w_l theta_{n-l+1}) / w_1

        Below the threshold the comprehensive control sends at the fixed
        rate ``f(1/theta_hat_n)``; above it the rate increases.
        """
        return (self._estimate - self._tail) / self._first_weight

    def reset(self, initial_interval: Optional[float] = None) -> None:
        """Clear the history, optionally changing the seed interval."""
        if initial_interval is not None:
            if initial_interval <= 0.0:
                raise ValueError("initial_interval must be positive")
            self._initial_interval = float(initial_interval)
        self._history = [self._initial_interval] * self.history_length
        self._refresh()

    def seed_history(self, intervals: Iterable[float]) -> None:
        """Overwrite the history with the given intervals (most recent first).

        Missing entries are filled with the last provided value; extra
        entries are ignored.
        """
        values = [float(v) for v in intervals]
        if not values:
            raise ValueError("at least one interval is required to seed the history")
        if any(v <= 0.0 for v in values):
            raise ValueError("intervals must be strictly positive")
        padded = (values + [values[-1]] * self.history_length)[: self.history_length]
        self._history = padded
        self._refresh()


def estimate_series(
    intervals: Sequence[float],
    weights: Sequence[float],
    warmup: Optional[int] = None,
) -> EstimatorTrace:
    """Run the moving-average estimator over a sequence of intervals.

    For each interval ``theta_n`` the returned trace contains the estimate
    ``theta_hat_n`` computed from the *preceding* ``L`` intervals, matching
    the paper's timing: the rate in force during interval ``n`` is
    ``f(1/theta_hat_n)``.

    Parameters
    ----------
    intervals:
        The observed loss-event intervals ``theta_0, theta_1, ...``.
    weights:
        The estimator weights ``(w_1, ..., w_L)``.
    warmup:
        Number of leading intervals used purely to warm up the estimator
        history (they are excluded from the returned trace).  Defaults to
        ``L``, so that every reported estimate is built from real data.
    """
    interval_array = np.asarray(list(intervals), dtype=float)
    if interval_array.ndim != 1:
        raise ValueError("intervals must be a 1-D sequence")
    if np.any(interval_array <= 0.0):
        raise ValueError("intervals must be strictly positive")
    estimator = MovingAverageEstimator(weights)
    history_length = estimator.history_length
    warmup_count = history_length if warmup is None else int(warmup)
    if warmup_count < 0:
        raise ValueError("warmup must be non-negative")
    if warmup_count >= interval_array.size:
        raise ValueError(
            "warmup consumes the entire interval sequence; provide more data"
        )
    # Warm up the history.
    if warmup_count > 0:
        estimator.seed_history(interval_array[:warmup_count][::-1])
    estimates = np.empty(interval_array.size - warmup_count, dtype=float)
    kept_intervals = interval_array[warmup_count:]
    for index, interval in enumerate(kept_intervals):
        estimates[index] = estimator.current_estimate()
        estimator.record_interval(interval)
    return EstimatorTrace(intervals=kept_intervals, estimates=estimates)
