"""Base interface for loss-process models.

A *loss process* in this package is a stochastic model that produces the
sequence of loss-event intervals ``theta_n`` (packets sent by the source
between two successive loss events) and, where meaningful, the real-time
inter-loss durations ``S_n``.  The basic and comprehensive controls in
:mod:`repro.core.control` are driven by these sequences; the Monte-Carlo
experiments in :mod:`repro.montecarlo` sample them in bulk.

The interface deliberately separates the two sampling modes the paper
uses:

* ``sample_intervals`` -- the packet-domain view (``theta_n`` directly),
  used by the numerical experiments of Section V-A.1 and the Claim 1
  validations;
* ``sample_durations`` -- the time-domain view (``S_n``), used by the
  Claim 2 setting in which losses occur independently of the send rate
  (e.g. a Bernoulli dropper in front of an audio source).
"""

from __future__ import annotations

import abc
import hashlib
import json
from typing import Optional, Union

import numpy as np

__all__ = [
    "LossProcess", "SeedLike", "check_seed", "derive_point_seed", "make_rng",
]

SeedLike = Union[None, int, np.random.Generator]

#: Seeds derived from a base seed stay below 2**32 so that they are valid
#: for every numpy bit-generator constructor.
_SEED_MODULUS = 2**32


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy random generator from an optional integer seed.

    Centralising generator construction keeps all stochastic components of
    the package reproducible from a single integer.  An existing
    :class:`numpy.random.Generator` is passed through unchanged, so a
    facade and the components it drives can share one stream without
    re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_seed(seed: object) -> None:
    """Reject a seed that is not ``None`` or a non-negative integer.

    The rule of every config that carries a base seed (``SimConfig``,
    and through it ``FlowSimConfig``; ``BatchConfig``,
    ``ExperimentSpec``).  The concrete integer types
    keep ``numbers.Integral``'s slower ABC check off the service's
    cache-hit path, which builds a config per request.
    """
    if seed is not None and (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or seed < 0
    ):
        raise ValueError(
            f"seed must be None or a non-negative integer, got {seed!r}"
        )


def derive_point_seed(base: Optional[int], /, **axes) -> Optional[int]:
    """Derive a per-point seed from a base seed and the point's axis values.

    The seed is a stable hash of the base seed together with the
    ``(axis name, axis value)`` pairs, so distinct points of a grid (and
    distinct grids, which use different axis names) get independent
    streams without the offset collisions of additive schemes such as
    ``seed + 1000*L + index``.  ``None`` propagates (an unseeded grid
    stays unseeded).  Campaign grid expansion and
    :meth:`repro.api.BatchConfig.point_seed` both derive through it.
    """
    if base is None:
        return None
    canonical = json.dumps(axes, sort_keys=True, separators=(",", ":"), default=str)
    digest = hashlib.sha256(f"{int(base)}|{canonical}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


class LossProcess(abc.ABC):
    """Abstract stationary-ergodic loss process.

    Concrete subclasses model the joint law of the loss-event intervals
    ``(theta_n)_n``.  They must be stationary so that long-run averages
    computed by the controls converge (the paper's standing assumption).
    """

    @abc.abstractmethod
    def sample_intervals(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` consecutive loss-event intervals ``theta_n``.

        The returned values are strictly positive floats (packet counts are
        allowed to be fractional, as in the paper's fluid analysis).
        """

    #: Whether the intervals are independent, identically distributed.
    #: The analytic (Proposition 1/3) evaluation paths factorise the
    #: estimator window from the next interval and are only valid when
    #: this holds; correlated models (Markov-modulated, Gilbert,
    #: order-preserving traces) override it to False.
    is_iid: bool = True

    @property
    @abc.abstractmethod
    def mean_interval(self) -> float:
        """The Palm expectation ``E[theta_0] = 1/p``."""

    @property
    def loss_event_rate(self) -> float:
        """The loss-event rate ``p = 1 / E[theta_0]``."""
        mean = self.mean_interval
        if mean <= 0.0:
            raise ValueError("mean_interval must be positive")
        return 1.0 / mean

    def coefficient_of_variation(self) -> float:
        """Coefficient of variation of ``theta_0`` when known analytically.

        Subclasses with a closed form override this; the default estimates
        it by simulation with a fixed internal seed, which is adequate for
        diagnostics but not for exact assertions.
        """
        rng = make_rng(12345)
        sample = self.sample_intervals(200_000, rng)
        mean = float(np.mean(sample))
        if mean <= 0.0:
            raise ValueError("sampled intervals have non-positive mean")
        return float(np.std(sample) / mean)

    def sample_durations(
        self,
        count: int,
        rng: np.random.Generator,
        send_rate: float = 1.0,
    ) -> np.ndarray:
        """Draw inter-loss durations ``S_n`` for a constant send rate.

        The default implementation assumes losses are clocked by packets,
        so ``S_n = theta_n / send_rate``.  Processes whose losses occur in
        real time independently of the send rate override this.
        """
        if send_rate <= 0.0:
            raise ValueError("send_rate must be positive")
        return self.sample_intervals(count, rng) / send_rate
