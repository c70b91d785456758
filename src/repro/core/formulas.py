"""Loss-throughput formulas used by equation-based rate control.

This module implements the three TCP throughput formulas studied in the
paper (Section II-C):

* :class:`SqrtFormula` -- the "square-root" formula of Mathis et al.,
  equation (5) in the paper::

      f(p) = 1 / (c1 * r * sqrt(p))

* :class:`PftkStandardFormula` -- the PFTK formula of Padhye et al.
  (equation (30) in PFTK, equation (6) in the paper)::

      f(p) = 1 / (c1 * r * sqrt(p) + q * min(1, c2 * sqrt(p)) * (p + 32 p^3))

* :class:`PftkSimplifiedFormula` -- the simplified PFTK formula recommended
  by the TFRC standard (equation (7) in the paper)::

      f(p) = 1 / (c1 * r * sqrt(p) + q * c2 * (p^(3/2) + 32 p^(7/2)))

plus the AIMD loss-throughput formula used in the Claim 4 analysis::

      f(p) = sqrt(alpha (1 + beta) / (2 (1 - beta))) / sqrt(p)

All formulas expose a common interface (:class:`LossThroughputFormula`),
accept scalar or :mod:`numpy` array arguments, and provide the auxiliary
mappings used throughout the analysis:

* ``rate(p)``                 -- ``f(p)``, packets per second,
* ``rate_of_interval(x)``     -- ``f(1/x)`` where ``x`` is a loss-event
  interval in packets (the quantity the sender actually plugs in),
* ``g(x) = 1 / f(1/x)``       -- the functional whose convexity governs
  conservativeness (Theorem 1),
* ``rate_derivative(p)``      -- ``f'(p)``, used by the bound (10),
* ``growth_time(lower, upper)`` -- the integral of ``g`` over
  ``[lower, upper]``: the time ODE (16) takes to grow the comprehensive
  control's estimate, from which Proposition 3's correction follows.

Each formula class carries its own closed forms: ``_g``, and
``growth_time``, which the base class leaves abstract.  So every formula
has one Proposition 3 integral, and no kernel dispatches on a formula's
type.  The convexity of ``g`` (condition (F1)) is checked on grids by
:mod:`repro.core.convexity`.  A formula rejects a non-finite parameter,
and a non-positive ``rtt``, ``rto``, ``c1`` or ``c2`` once the defaults
are filled in.

Constants follow the paper: ``c1 = sqrt(2 b / 3)`` and
``c2 = (3 / 2) * sqrt(3 b / 2)`` with ``b`` the number of packets covered by
one acknowledgment (``b = 2`` by default, as in practice).
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "LossThroughputFormula",
    "SqrtFormula",
    "PftkStandardFormula",
    "PftkSimplifiedFormula",
    "AimdFormula",
    "Msmo97Formula",
    "check_parameters",
    "default_c1",
    "default_c2",
]


def default_c1(b: int = 2) -> float:
    """Return the constant ``c1 = sqrt(2 b / 3)`` of the paper.

    Parameters
    ----------
    b:
        Number of packets acknowledged by a single acknowledgment
        (``b = 2`` with delayed acks, the practical default).
    """
    if b <= 0:
        raise ValueError(f"b must be positive, got {b}")
    return math.sqrt(2.0 * b / 3.0)


def default_c2(b: int = 2) -> float:
    """Return the constant ``c2 = (3/2) * sqrt(3 b / 2)`` of the paper."""
    if b <= 0:
        raise ValueError(f"b must be positive, got {b}")
    return 1.5 * math.sqrt(3.0 * b / 2.0)


#: Parameters that must be positive once the defaults are filled in.
_POSITIVE_PARAMETERS = ("rtt", "rto", "c1", "c2")


def _as_array(p: ArrayLike) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    return arr


def check_parameters(component) -> None:
    """Reject a non-finite field of a dataclass component, and a
    non-positive ``rtt``, ``rto``, ``c1`` or ``c2``.

    Run after the fill-ins: JSON decoders read ``NaN``, ``Infinity`` and
    ``1e999``, and a non-finite parameter would otherwise yield ``nan``
    rates rather than an error.
    """
    for item in dataclasses.fields(component):
        value = getattr(component, item.name)
        if not math.isfinite(value):
            raise ValueError(f"{item.name} must be finite, got {value}")
        if item.name in _POSITIVE_PARAMETERS and value <= 0.0:
            raise ValueError(f"{item.name} must be positive, got {value}")


def _validate_loss_rate(p: np.ndarray) -> None:
    # The argument is allowed to exceed 1: the controls evaluate f at
    # 1/theta_hat, and the estimator can transiently fall below one packet
    # under heavy loss.  Non-positive and non-finite values are rejected
    # uniformly across the formula zoo -- before this guard, a nan slipped
    # through every formula silently (nan fails the <= comparison) and an
    # inf produced a silent 0.0 rate instead of a clear domain error.
    # The ndarray methods, not the np.all/np.any wrappers: this runs on
    # every scalar f evaluation of the packet-level senders.
    if not np.isfinite(p).all():
        raise ValueError("loss-event rate p must be finite (got nan or inf)")
    if (p <= 0.0).any():
        raise ValueError("loss-event rate p must be strictly positive")


class LossThroughputFormula(abc.ABC):
    """Abstract base class for loss-throughput formulas ``p -> f(p)``.

    A formula maps a loss-event rate ``p in (0, 1]`` to a send rate in
    packets per second.  In the paper's notation the round-trip time is
    folded into the formula (``r`` is assumed fixed to its mean in the
    analysis), so instances carry their own ``rtt``.
    """

    #: Mean round-trip time in seconds folded into the formula.
    rtt: float

    # ------------------------------------------------------------------
    # Primary mapping
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def rate(self, p: ArrayLike) -> ArrayLike:
        """Return ``f(p)`` in packets per second for loss-event rate ``p``."""

    @abc.abstractmethod
    def rate_derivative(self, p: ArrayLike) -> ArrayLike:
        """Return ``f'(p)``, the derivative of the rate w.r.t. ``p``."""

    # ------------------------------------------------------------------
    # Derived mappings used by the analysis
    # ------------------------------------------------------------------
    def __call__(self, p: ArrayLike) -> ArrayLike:
        return self.rate(p)

    def rate_of_interval(self, x: ArrayLike) -> ArrayLike:
        """Return ``f(1/x)`` where ``x`` is a loss-event interval in packets.

        This is the quantity the sender computes when it plugs the
        loss-event interval estimator ``theta_hat`` into the formula.
        """
        x_arr = _as_array(x)
        if (x_arr <= 0.0).any():
            raise ValueError("loss-event interval x must be strictly positive")
        result = self.rate(1.0 / x_arr)
        return result if isinstance(x, np.ndarray) else float(result)

    def g(self, x: ArrayLike) -> ArrayLike:
        """Return ``g(x) = 1 / f(1/x)``.

        The convexity of ``g`` is condition (F1) of Theorem 1; ``g(x)`` has
        the interpretation of the expected inter-loss-event *time* when the
        loss-event interval is ``x`` packets.
        """
        x_arr = _as_array(x)
        if (x_arr <= 0.0).any():
            raise ValueError("loss-event interval x must be strictly positive")
        if not np.isfinite(x_arr).all():
            raise ValueError("loss-event interval x must be finite")
        result = self._g(x_arr)
        return result if isinstance(x, np.ndarray) else float(result)

    def _g(self, x: np.ndarray) -> np.ndarray:
        """``g`` on a positive array; formulas with a direct form override it."""
        return 1.0 / self.rate(1.0 / x)

    @abc.abstractmethod
    def growth_time(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Return the integral of ``g`` from ``lower`` to ``upper``, elementwise.

        ``w1`` times the time ODE (16) takes to grow the comprehensive
        control's estimate from ``lower`` to ``upper`` (1-D arrays): the
        closed form of Proposition 3's correction.
        """


class _InverseSqrtFormula(LossThroughputFormula):
    """The inverse-square-root law ``f(p) = k / (scale * sqrt(p))``.

    :class:`SqrtFormula`, :class:`AimdFormula` and :class:`Msmo97Formula`
    differ only in ``k`` (:attr:`constant`) and ``scale``; the rate, its
    derivative and ``g(x) = scale / (k sqrt(x))`` are written once here.
    """

    #: ``k``; AIMD and MSMO97 derive theirs from their parameters.
    constant = 1.0

    @property
    def scale(self) -> float:
        """``scale``: the round-trip time, times ``c1`` for SQRT."""
        return self.rtt

    def rate(self, p: ArrayLike) -> ArrayLike:
        p_arr = _as_array(p)
        _validate_loss_rate(p_arr)
        result = self.constant / (self.scale * np.sqrt(p_arr))
        return result if isinstance(p, np.ndarray) else float(result)

    def rate_derivative(self, p: ArrayLike) -> ArrayLike:
        p_arr = _as_array(p)
        _validate_loss_rate(p_arr)
        result = -0.5 * self.constant / (self.scale * p_arr**1.5)
        return result if isinstance(p, np.ndarray) else float(result)

    def _g(self, x: np.ndarray) -> np.ndarray:
        return self.scale / (self.constant * np.sqrt(x))

    def growth_time(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Proposition 3's closed form ``2 (scale / k) (sqrt(upper) - sqrt(lower))``."""
        return 2.0 * (self.scale / self.constant) * (np.sqrt(upper) - np.sqrt(lower))


@dataclass(frozen=True)
class SqrtFormula(_InverseSqrtFormula):
    """The square-root loss-throughput formula (equation (5) of the paper).

    ``f(p) = 1 / (c1 * r * sqrt(p))`` with ``c1 = sqrt(2 b / 3)``.

    ``x -> 1/f(1/x)`` is convex (F1) and ``p -> f(p)`` is convex but
    ``x -> f(1/x)`` is concave (F2) for every ``p``, so under the paper's
    covariance conditions a SQRT-driven control is always conservative.
    """

    rtt: float = 1.0
    b: int = 2
    c1: float = field(default=0.0)

    def __post_init__(self) -> None:
        # lint: allow[hygiene-float-eq] 0.0 is the exact fill-in sentinel
        if self.c1 == 0.0:
            object.__setattr__(self, "c1", default_c1(self.b))
        check_parameters(self)

    @property
    def scale(self) -> float:
        return self.c1 * self.rtt


@dataclass(frozen=True)
class _PftkFormula(LossThroughputFormula):
    """The parameters and the rate ``1 / denominator(p)`` of the two PFTK
    formulas.  ``q`` (``rto``) is the TCP retransmission timeout; the
    TFRC recommendation ``q = 4 r`` is the default."""

    rtt: float = 1.0
    rto: float = -1.0
    b: int = 2
    c1: float = field(default=0.0)
    c2: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.rto <= 0.0:
            object.__setattr__(self, "rto", 4.0 * self.rtt)
        # lint: allow[hygiene-float-eq] 0.0 is the exact fill-in sentinel
        if self.c1 == 0.0:
            object.__setattr__(self, "c1", default_c1(self.b))
        # lint: allow[hygiene-float-eq] 0.0 is the exact fill-in sentinel
        if self.c2 == 0.0:
            object.__setattr__(self, "c2", default_c2(self.b))
        check_parameters(self)

    @abc.abstractmethod
    def _denominator(self, p: np.ndarray) -> np.ndarray:
        """``1 / f(p)``."""

    def rate(self, p: ArrayLike) -> ArrayLike:
        p_arr = _as_array(p)
        _validate_loss_rate(p_arr)
        result = 1.0 / self._denominator(p_arr)
        return result if isinstance(p, np.ndarray) else float(result)


@dataclass(frozen=True)
class PftkStandardFormula(_PftkFormula):
    """The PFTK throughput formula (equation (6) of the paper).

    ``f(p) = 1 / (c1 r sqrt(p) + q min(1, c2 sqrt(p)) (p + 32 p^3))``.

    Because of the ``min`` term, ``x -> 1/f(1/x)`` is *almost* convex:
    the deviation-from-convexity ratio is about 1.0026 (Figure 2 /
    Proposition 4).
    """

    def _denominator(self, p: np.ndarray) -> np.ndarray:
        sqrt_p = np.sqrt(p)
        timeout_term = np.minimum(1.0, self.c2 * sqrt_p) * (p + 32.0 * p**3)
        return self.c1 * self.rtt * sqrt_p + self.rto * timeout_term

    def rate_derivative(self, p: ArrayLike) -> ArrayLike:
        p_arr = _as_array(p)
        _validate_loss_rate(p_arr)
        sqrt_p = np.sqrt(p_arr)
        poly = p_arr + 32.0 * p_arr**3
        poly_prime = 1.0 + 96.0 * p_arr**2
        min_term = np.minimum(1.0, self.c2 * sqrt_p)
        # Derivative of the min term: c2 / (2 sqrt(p)) when c2 sqrt(p) < 1, else 0.
        min_prime = np.where(self.c2 * sqrt_p < 1.0, 0.5 * self.c2 / sqrt_p, 0.0)
        denom = self._denominator(p_arr)
        denom_prime = (
            0.5 * self.c1 * self.rtt / sqrt_p
            + self.rto * (min_prime * poly + min_term * poly_prime)
        )
        result = -denom_prime / denom**2
        return result if isinstance(p, np.ndarray) else float(result)

    def _g(self, x: np.ndarray) -> np.ndarray:
        # The denominator at p = s^2 by multiplication chains in
        # s = x^{-1/2}, without fractional powers.
        s = 1.0 / np.sqrt(x)
        u = s * s
        return self.c1 * self.rtt * s + self.rto * np.minimum(1.0, self.c2 * s) * (
            u + 32.0 * u * u * u
        )

    def growth_time(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Proposition 3's closed form: ``F(upper) - F(lower)``.

        ``g`` switches branch at ``x = c2^2``, where ``c2 x^{-1/2}`` reaches
        one.  Below it ``F(x) = 2 c1 r sqrt(x) + q (ln x - 16 x^-2)``;
        above it ``F(x) = 2 c1 r sqrt(x) - q c2 (2 x^-1/2 + (64/5) x^-5/2)``
        plus the constant that makes ``F`` continuous at ``c2^2``.
        """
        c1r, q, c2 = self.c1 * self.rtt, self.rto, self.c2
        switch = c2 * c2
        join = q * (2.0 * math.log(c2) + 2.0 - (16.0 / 5.0) / (switch * switch))

        def antiderivative(x: np.ndarray) -> np.ndarray:
            below = q * (np.log(x) - 16.0 / (x * x))
            above = join - q * c2 * (2.0 / np.sqrt(x) + (64.0 / 5.0) * x**-2.5)
            return 2.0 * c1r * np.sqrt(x) + np.where(x < switch, below, above)

        return antiderivative(upper) - antiderivative(lower)


@dataclass(frozen=True)
class PftkSimplifiedFormula(_PftkFormula):
    """The simplified PFTK formula recommended by TFRC (equation (7)).

    ``f(p) = 1 / (c1 r sqrt(p) + q c2 (p^{3/2} + 32 p^{7/2}))``.

    Compared to PFTK-standard, the ``min`` term is replaced by
    ``c2 sqrt(p)``, which makes ``x -> 1/f(1/x)`` exactly convex (F1).
    For ``p <= 1/c2**2`` the two formulas coincide; for larger ``p`` the
    simplified formula is smaller.
    """

    def _denominator(self, p: np.ndarray) -> np.ndarray:
        return self.c1 * self.rtt * np.sqrt(p) + self.rto * self.c2 * (
            p**1.5 + 32.0 * p**3.5
        )

    def rate_derivative(self, p: ArrayLike) -> ArrayLike:
        p_arr = _as_array(p)
        _validate_loss_rate(p_arr)
        denom = self._denominator(p_arr)
        denom_prime = 0.5 * self.c1 * self.rtt / np.sqrt(p_arr) + self.rto * self.c2 * (
            1.5 * np.sqrt(p_arr) + 112.0 * p_arr**2.5
        )
        result = -denom_prime / denom**2
        return result if isinstance(p, np.ndarray) else float(result)

    def _g(self, x: np.ndarray) -> np.ndarray:
        # As PFTK-standard's, without the min term.
        s = 1.0 / np.sqrt(x)
        s3 = s * s * s
        return self.c1 * self.rtt * s + self.rto * self.c2 * (s3 + 32.0 * s3 * s3 * s)

    def growth_time(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Proposition 3's closed form of the integral of ``g``."""
        c1r = self.c1 * self.rtt
        c2q = self.c2 * self.rto
        return (
            2.0 * c1r * (np.sqrt(upper) - np.sqrt(lower))
            - 2.0 * c2q * (upper**-0.5 - lower**-0.5)
            - (64.0 / 5.0) * c2q * (upper**-2.5 - lower**-2.5)
        )


@dataclass(frozen=True)
class AimdFormula(_InverseSqrtFormula):
    """Loss-throughput formula of an AIMD(alpha, beta) source.

    ``f(p) = sqrt(alpha (1 + beta) / (2 (1 - beta))) / (r sqrt(p))``

    Used by the Claim 4 analysis of a few senders competing for a
    fixed-capacity bottleneck.  With ``alpha = 1`` and ``beta = 1/2`` and
    ``r = 1`` this is the TCP-like setting of the paper.
    """

    alpha: float = 1.0
    beta: float = 0.5
    rtt: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        check_parameters(self)

    @property
    def constant(self) -> float:
        """The constant ``sqrt(alpha (1 + beta) / (2 (1 - beta)))``."""
        return math.sqrt(self.alpha * (1.0 + self.beta) / (2.0 * (1.0 - self.beta)))


@dataclass(frozen=True)
class Msmo97Formula(_InverseSqrtFormula):
    """The MSMO97 (Mathis-Semke-Mahdavi-Ott) macroscopic TCP model.

    ``f(p) = sqrt(3 / (2 b)) / (r * sqrt(p))``

    The "TCP-friendly" square-root law in its original 1997
    parameterisation: ``b`` is the number of packets acknowledged per
    ACK and defaults to ``1`` (every packet acknowledged), the Mathis
    convention -- whereas the paper's :class:`SqrtFormula` defaults to
    the delayed-ack ``b = 2``.  At equal ``b`` the two formulas are
    numerically identical (``sqrt(3/(2b)) = 1/c1``); MSMO97 is kept as
    its own registry kind so flowsim campaigns and the model-zoo
    comparisons can name the classic model directly.
    """

    rtt: float = 1.0
    b: int = 1

    def __post_init__(self) -> None:
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        check_parameters(self)

    @property
    def constant(self) -> float:
        """The MSS-free Mathis constant ``sqrt(3 / (2 b))``."""
        return math.sqrt(3.0 / (2.0 * self.b))
