"""Correlated loss-event interval models: Markov-modulated and Gilbert.

Theorem 1's covariance condition (C1) fails when the loss process "goes
into phases with slow transitions" -- the loss-event interval then becomes
highly predictable and the moving-average estimator is positively
correlated with the next interval.  Section III-B.2 and Claim 2 discuss
such phased processes; this module provides two concrete families:

* :class:`MarkovModulatedIntervals` -- a discrete-time Markov chain over
  phases, each phase having its own i.i.d. interval distribution.  Slow
  transitions produce strong positive autocorrelation of ``theta_n``.
* :class:`GilbertPacketLoss` -- the classic two-state (good/bad) per-packet
  loss model, exposed both as a per-packet dropper and as the induced
  loss-event interval process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .base import LossProcess

__all__ = [
    "MarkovModulatedIntervals",
    "GilbertPacketLoss",
    "GilbertIntervals",
    "two_phase_process",
]


class MarkovModulatedIntervals(LossProcess):
    """Loss-event intervals modulated by a discrete-time Markov chain.

    At each loss event the chain moves according to ``transition_matrix``;
    the interval to the next loss event is drawn from an exponential
    distribution whose mean is the current phase's ``phase_means`` entry.

    Parameters
    ----------
    transition_matrix:
        Row-stochastic matrix of phase transition probabilities.
    phase_means:
        Mean loss-event interval (packets) in each phase.
    phase_cv:
        Coefficient of variation of the interval within a phase; ``1``
        gives exponential intervals, smaller values give shifted
        exponentials (same construction as the i.i.d. model).
    """

    is_iid = False

    def __init__(
        self,
        transition_matrix: Sequence[Sequence[float]],
        phase_means: Sequence[float],
        phase_cv: float = 1.0,
    ) -> None:
        matrix = np.asarray(transition_matrix, dtype=float)
        means = np.asarray(phase_means, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("transition_matrix must be square")
        if matrix.shape[0] != means.size:
            raise ValueError("phase_means length must match the matrix dimension")
        if np.any(matrix < 0.0) or not np.allclose(matrix.sum(axis=1), 1.0):
            raise ValueError("transition_matrix must be row-stochastic")
        if np.any(means <= 0.0):
            raise ValueError("phase_means must be strictly positive")
        if not 0.0 < phase_cv <= 1.0:
            raise ValueError("phase_cv must be in (0, 1]")
        self._matrix = matrix
        self._means = means
        self._phase_cv = float(phase_cv)
        self._stationary = self._stationary_distribution(matrix)

    @staticmethod
    def _stationary_distribution(matrix: np.ndarray) -> np.ndarray:
        """Solve ``pi P = pi`` with ``sum(pi) = 1`` by eigen-decomposition."""
        eigenvalues, eigenvectors = np.linalg.eig(matrix.T)
        index = int(np.argmin(np.abs(eigenvalues - 1.0)))
        stationary = np.real(eigenvectors[:, index])
        stationary = np.abs(stationary)
        return stationary / stationary.sum()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        """Number of phases of the modulating chain."""
        return self._means.size

    @property
    def transition_matrix(self) -> np.ndarray:
        """The phase transition matrix (copy)."""
        return self._matrix.copy()

    @property
    def phase_means(self) -> np.ndarray:
        """Mean loss-event interval per phase (copy)."""
        return self._means.copy()

    @property
    def phase_cv(self) -> float:
        """Within-phase coefficient of variation of the intervals."""
        return self._phase_cv

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovModulatedIntervals):
            return NotImplemented
        return (
            np.array_equal(self._matrix, other._matrix)
            and np.array_equal(self._means, other._means)
            and self._phase_cv == other._phase_cv
        )

    def __hash__(self) -> int:
        return hash(
            (self._matrix.tobytes(), self._means.tobytes(), self._phase_cv)
        )

    @property
    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the modulating chain (copy)."""
        return self._stationary.copy()

    @property
    def mean_interval(self) -> float:
        return float(np.dot(self._stationary, self._means))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _draw_interval(
        self, phase: int, rng: np.random.Generator
    ) -> float:
        mean = self._means[phase]
        exponential_mean = self._phase_cv**2 * mean
        shift = mean - exponential_mean
        return float(shift + rng.exponential(exponential_mean))

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_intervals_with_phases(count, rng)[0]

    def sample_intervals_with_phases(
        self, count: int, rng: np.random.Generator
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Draw ``count`` intervals and the phase path that produced them."""
        if count <= 0:
            raise ValueError("count must be positive")
        phases = np.empty(count, dtype=int)
        intervals = np.empty(count, dtype=float)
        # ``rng.choice(n, p=row)`` normalises the row's cumulative sums and
        # searches them for one ``rng.random()`` draw; doing the sums once
        # per row gives the same phase path from the same stream.
        cdfs = []
        for row in self._matrix:
            cdf = row.cumsum()
            cdf /= cdf[-1]
            cdfs.append(cdf)
        phase = int(rng.choice(self.num_phases, p=self._stationary))
        for index in range(count):
            phases[index] = phase
            intervals[index] = self._draw_interval(phase, rng)
            phase = int(cdfs[phase].searchsorted(rng.random(), side="right"))
        return intervals, phases


def two_phase_process(
    good_mean: float,
    bad_mean: float,
    switch_probability: float,
    phase_cv: float = 1.0,
) -> MarkovModulatedIntervals:
    """Build a symmetric two-phase (good/congested) interval process.

    ``switch_probability`` is the per-loss-event probability of changing
    phase; small values give slow phase transitions, the regime in which
    the paper warns Theorem 1's covariance condition may fail.
    """
    if not 0.0 < switch_probability <= 1.0:
        raise ValueError("switch_probability must be in (0, 1]")
    stay = 1.0 - switch_probability
    matrix = [[stay, switch_probability], [switch_probability, stay]]
    return MarkovModulatedIntervals(
        transition_matrix=matrix,
        phase_means=[good_mean, bad_mean],
        phase_cv=phase_cv,
    )


@dataclass(frozen=True)
class GilbertPacketLoss:
    """Two-state Gilbert per-packet loss model.

    In the *good* state a packet is lost with probability
    ``good_loss_probability``; in the *bad* state with
    ``bad_loss_probability``.  State transitions occur per packet with the
    given probabilities.  The model exposes both the per-packet loss
    indicator sequence and the induced loss-event interval process (number
    of packets between losses), which is what the controls consume.
    """

    good_to_bad: float
    bad_to_good: float
    good_loss_probability: float = 0.0
    bad_loss_probability: float = 0.5

    def __post_init__(self) -> None:
        for name in ("good_to_bad", "bad_to_good"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in ("good_loss_probability", "bad_loss_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        # lint: allow[hygiene-float-eq] exact degenerate-chain rejection
        if self.good_loss_probability == 0.0 and self.bad_loss_probability == 0.0:
            raise ValueError("at least one state must have a positive loss probability")

    @property
    def stationary_bad_probability(self) -> float:
        """Stationary probability of being in the bad state."""
        return self.good_to_bad / (self.good_to_bad + self.bad_to_good)

    @property
    def average_loss_probability(self) -> float:
        """Stationary per-packet loss probability."""
        bad = self.stationary_bad_probability
        return (
            (1.0 - bad) * self.good_loss_probability + bad * self.bad_loss_probability
        )

    def sample_loss_indicators(
        self, num_packets: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return a boolean array: True where the packet is lost."""
        if num_packets <= 0:
            raise ValueError("num_packets must be positive")
        losses = np.zeros(num_packets, dtype=bool)
        in_bad_state = rng.random() < self.stationary_bad_probability
        for index in range(num_packets):
            loss_probability = (
                self.bad_loss_probability if in_bad_state else self.good_loss_probability
            )
            losses[index] = rng.random() < loss_probability
            switch_probability = self.bad_to_good if in_bad_state else self.good_to_bad
            if rng.random() < switch_probability:
                in_bad_state = not in_bad_state
        return losses

    def sample_loss_event_intervals(
        self, count: int, rng: np.random.Generator, max_packets: Optional[int] = None
    ) -> np.ndarray:
        """Return ``count`` loss-event intervals induced by the model.

        A loss event here is a single lost packet (no RTT aggregation); the
        interval is the number of packets from one loss to the next.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        budget = max_packets if max_packets is not None else count * 100_000
        intervals: List[float] = []
        packets_since_loss = 0
        in_bad_state = rng.random() < self.stationary_bad_probability
        for _ in range(budget):
            packets_since_loss += 1
            loss_probability = (
                self.bad_loss_probability if in_bad_state else self.good_loss_probability
            )
            if rng.random() < loss_probability:
                intervals.append(float(packets_since_loss))
                packets_since_loss = 0
                if len(intervals) == count:
                    break
            switch_probability = self.bad_to_good if in_bad_state else self.good_to_bad
            if rng.random() < switch_probability:
                in_bad_state = not in_bad_state
        if len(intervals) < count:
            raise RuntimeError(
                "packet budget exhausted before generating the requested number "
                "of loss events; increase max_packets or the loss probabilities"
            )
        return np.asarray(intervals, dtype=float)


@dataclass(frozen=True)
class GilbertIntervals(LossProcess):
    """Loss-event interval process induced by a Gilbert per-packet model.

    Adapts :class:`GilbertPacketLoss` to the :class:`LossProcess`
    interface consumed by the controls and the Monte-Carlo runners: each
    lost packet is a loss event and the interval is the packet count
    between successive losses.  By renewal-reward the mean interval is the
    reciprocal of the stationary per-packet loss probability.
    """

    is_iid = False

    good_to_bad: float
    bad_to_good: float
    good_loss_probability: float = 0.0
    bad_loss_probability: float = 0.5

    def __post_init__(self) -> None:
        # Parameter validation is delegated to the wrapped model.
        self.model  # noqa: B018 - force construction

    @property
    def model(self) -> GilbertPacketLoss:
        """The underlying per-packet Gilbert model."""
        return GilbertPacketLoss(
            good_to_bad=self.good_to_bad,
            bad_to_good=self.bad_to_good,
            good_loss_probability=self.good_loss_probability,
            bad_loss_probability=self.bad_loss_probability,
        )

    @property
    def mean_interval(self) -> float:
        return 1.0 / self.model.average_loss_probability

    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.model.sample_loss_event_intervals(count, rng)
