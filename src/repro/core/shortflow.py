"""Short-flow transfer-latency models (CSA00).

The loss-throughput formulas of :mod:`repro.core.formulas` are
steady-state models: they map a loss-event rate to the long-run send
rate of an unbounded flow.  Finite transfers -- the short flows that
dominate real workloads -- spend a large fraction of their life in
connection establishment and slow start, where those formulas do not
apply.  This module adds the complementary *latency* models:

* :class:`LatencyModel` -- the abstract interface ``(size, p) ->``
  expected transfer latency in seconds, with the derived mapping
  ``transfer_rate(size, p) = size / latency(size, p)``;
* :class:`Csa00LatencyModel` -- the Cardwell-Savage-Anderson model
  (INFOCOM 2000), which extends PFTK98 with the expected cost of the
  three-way handshake, the initial slow-start phase, and the first
  loss recovery, leaving only the remainder of the transfer to the
  steady-state congestion-avoidance rate.

The CSA00 expectation is assembled from the paper's equations (numbers
follow the INFOCOM 2000 paper), with both loss directions at the same
rate ``p`` and ``q = 1 - p``:

* handshake (eq. 4): ``rtt + ts * (2 q / (1 - 2 p) - 2)`` -- note the
  ``1 - 2p`` pole, which bounds the model's domain to ``p < 1/2``;
* data packets ``d = ceil(size)`` and the expected number sent in the
  initial slow start (eq. 5): ``E[d_ss] = floor((1 - q^d) q / p + 1)``;
* expected window at the end of slow start (eq. 11):
  ``E[w_ss] = E[d_ss] (gamma - 1) / gamma + w1 / gamma`` with ``w1``
  the initial window and ``gamma`` the per-round growth rate;
* slow-start time (eq. 15), with the receive-window branch when
  ``E[w_ss]`` exceeds ``wmax``::

      rtt * log_gamma(E[d_ss] (gamma - 1) / w1 + 1)                     (uncapped)
      rtt * (log_gamma(wmax / w1) + 1
             + (E[d_ss] - (gamma wmax - w1) / (gamma - 1)) / wmax)      (capped)

* first-loss recovery (eqs. 16-20): with ``l_ss = 1 - q^d`` the
  probability slow start ends in a loss, ``Q(p, w)`` the probability
  that loss is a timeout (eq. 17), ``G(p) = 1 + p + 2p^2 + 4p^3 + 8p^4
  + 16p^5 + 32p^6`` (eq. 19) and ``E[Z_TO] = G(p) rto / q`` (eq. 18)::

      E[T_loss] = l_ss * (Q(p, E[w_ss]) E[Z_TO] + (1 - Q(p, E[w_ss])) rtt)

* congestion-avoidance remainder (eqs. 21-24): the
  ``E[d_ca] = d - E[d_ss]`` residual packets are sent at the PFTK98
  steady-state rate ``R(p)`` (window-limited branch when the expected
  window ``W(p)`` reaches ``wmax``), costing ``E[d_ca] / R(p)``;
* a constant delayed-ack allowance (0.1 s by default).

Unlike the reference implementations that draw the initial window at
random, :class:`Csa00LatencyModel` is fully deterministic:
``initial_window`` is a validated constructor parameter (default 2),
so the same config always produces the same latency -- a requirement
for the registry round-trip contract and for matched-seed campaign
reproducibility.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from .formulas import check_parameters

ArrayLike = Union[float, np.ndarray]

__all__ = ["LatencyModel", "Csa00LatencyModel"]


def _as_array(value: ArrayLike) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _validate_domain(size: np.ndarray, p: np.ndarray) -> None:
    if not np.all(np.isfinite(size)):
        raise ValueError("transfer size must be finite (got nan/inf)")
    if np.any(size <= 0.0):
        raise ValueError("transfer size must be strictly positive (packets)")
    if not np.all(np.isfinite(p)):
        raise ValueError("loss-event rate p must be finite (got nan/inf)")
    if np.any(p <= 0.0):
        raise ValueError("loss-event rate p must be strictly positive")
    if np.any(p >= 0.5):
        raise ValueError(
            "loss-event rate p must be below 0.5: the CSA00 handshake and "
            "RTO-cost terms carry a 1/(1 - 2p) pole at p = 0.5"
        )


class LatencyModel(abc.ABC):
    """Abstract expected-transfer-latency model ``(size, p) -> seconds``.

    ``size`` is the transfer volume in packets and ``p`` the loss-event
    rate; both accept scalars or :mod:`numpy` arrays (broadcast against
    each other).  The derived ``transfer_rate`` is what lets finite
    flows in :mod:`repro.flowsim` complete on model-predicted latency.
    """

    #: Mean round-trip time in seconds folded into the model.
    rtt: float

    @abc.abstractmethod
    def latency(self, size: ArrayLike, p: ArrayLike) -> ArrayLike:
        """Expected transfer latency in seconds for ``size`` packets."""

    def __call__(self, size: ArrayLike, p: ArrayLike) -> ArrayLike:
        return self.latency(size, p)

    def transfer_rate(self, size: ArrayLike, p: ArrayLike) -> ArrayLike:
        """Effective send rate ``size / latency(size, p)`` in packets/s."""
        size_arr = _as_array(size)
        result = size_arr / _as_array(self.latency(size, p))
        if isinstance(size, np.ndarray) or isinstance(p, np.ndarray):
            return result
        return float(result)


@dataclass(frozen=True)
class Csa00LatencyModel(LatencyModel):
    """The CSA00 (Cardwell-Savage-Anderson, INFOCOM 2000) latency model.

    Parameters
    ----------
    rtt:
        Mean round-trip time in seconds.
    rto:
        Retransmission timeout in seconds; a non-positive value is
        filled in as ``2 * rtt``.  Like a formula, the model rejects a
        non-finite parameter and a non-positive ``rtt`` or ``rto``.
    initial_window:
        Deterministic initial congestion window ``w1`` in packets
        (default 2; the reference implementations draw it at random,
        which would break registry reproducibility).
    gamma:
        Slow-start per-round window growth rate (1.5 under delayed
        acks).
    max_window:
        Receive-window cap ``wmax`` in packets (default 718, a 1 MiB
        window of 1460-byte segments).
    b:
        Packets acknowledged per ACK in the congestion-avoidance rate.
    syn_timeout:
        Initial SYN retransmission timeout ``ts`` in seconds.
    delayed_ack:
        Constant delayed-ack allowance added to every transfer.
    """

    rtt: float = 1.0
    rto: float = -1.0
    initial_window: int = 2
    gamma: float = 1.5
    max_window: float = 718.0
    b: int = 2
    syn_timeout: float = 3.0
    delayed_ack: float = 0.1

    def __post_init__(self) -> None:
        if self.rto <= 0.0:
            object.__setattr__(self, "rto", 2.0 * self.rtt)
        check_parameters(self)
        if self.initial_window < 1 or self.initial_window != int(self.initial_window):
            raise ValueError(
                f"initial_window must be a positive integer, got "
                f"{self.initial_window}"
            )
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not (
            math.isfinite(self.max_window)
            and self.max_window >= float(self.initial_window)
        ):
            raise ValueError(
                f"max_window must be finite and at least the initial "
                f"window, got {self.max_window}"
            )
        if self.b <= 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.syn_timeout < 0.0:
            raise ValueError(f"syn_timeout must be non-negative, got {self.syn_timeout}")
        if self.delayed_ack < 0.0:
            raise ValueError(f"delayed_ack must be non-negative, got {self.delayed_ack}")

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    @staticmethod
    def _timeout_probability(p: np.ndarray, window: np.ndarray) -> np.ndarray:
        """Eq. 17: probability a loss in a window ``w`` is a timeout."""
        q = 1.0 - p
        w = np.maximum(window, 1.0)
        numerator = 1.0 + q**3 * (1.0 - q ** (w - 3.0))
        denominator = (1.0 - q**w) / (1.0 - q**3)
        return np.minimum(1.0, numerator / denominator)

    @staticmethod
    def _timeout_factor(p: np.ndarray) -> np.ndarray:
        """Eq. 19: ``G(p)``, the expected back-off series of an RTO."""
        return (
            1.0 + p + 2.0 * p**2 + 4.0 * p**3 + 8.0 * p**4
            + 16.0 * p**5 + 32.0 * p**6
        )

    def _steady_state_rate(self, p: np.ndarray) -> np.ndarray:
        """Eqs. 22-23: the PFTK98 congestion-avoidance rate ``R(p)``."""
        q = 1.0 - p
        bb = float(self.b)
        wmax = self.max_window
        shape = (2.0 + bb) / (3.0 * bb)
        expected_window = shape + np.sqrt(
            8.0 * q / (3.0 * bb * p) + shape**2
        )
        timeout_cost = self._timeout_factor(p) * self.rto / q
        q_small = self._timeout_probability(p, expected_window)
        rate_small = (q / p + expected_window / 2.0 + q_small) / (
            self.rtt * (bb / 2.0 * expected_window + 1.0)
            + q_small * timeout_cost
        )
        q_capped = self._timeout_probability(p, np.full_like(p, wmax))
        rate_capped = (q / p + wmax / 2.0 + q_capped) / (
            self.rtt * (bb / 8.0 * wmax + q / (p * wmax) + 2.0)
            + q_capped * timeout_cost
        )
        return np.where(expected_window < wmax, rate_small, rate_capped)

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def components(self, size: ArrayLike, p: ArrayLike) -> Dict[str, ArrayLike]:
        """Per-phase expected costs of one transfer, in seconds.

        Keys: ``handshake``, ``slow_start``, ``loss_recovery``,
        ``congestion_avoidance``, ``delayed_ack``, and their sum
        ``latency``.  Values follow the scalar-in / array-out
        convention of the formula zoo.
        """
        size_arr, p_arr = np.broadcast_arrays(_as_array(size), _as_array(p))
        _validate_domain(size_arr, p_arr)
        q = 1.0 - p_arr
        w1 = float(self.initial_window)
        wmax = self.max_window
        log_gamma = math.log(self.gamma)

        # Eq. 4 (both directions at rate p): expected handshake time.
        handshake = self.rtt + self.syn_timeout * (
            2.0 * q / (1.0 - 2.0 * p_arr) - 2.0
        )

        # Eqs. 5, 11: packets and window of the initial slow start.
        packets = np.ceil(size_arr)
        slow_start_packets = np.minimum(
            np.floor((1.0 - q**packets) * q / p_arr + 1.0), packets
        )
        end_window = (
            slow_start_packets * (self.gamma - 1.0) / self.gamma
            + w1 / self.gamma
        )

        # Eq. 15: slow-start time, receive-window branch when capped.
        uncapped = self.rtt * (
            np.log(slow_start_packets * (self.gamma - 1.0) / w1 + 1.0)
            / log_gamma
        )
        capped = self.rtt * (
            math.log(wmax / w1) / log_gamma
            + 1.0
            + (
                slow_start_packets
                - (self.gamma * wmax - w1) / (self.gamma - 1.0)
            )
            / wmax
        )
        slow_start = np.where(end_window > wmax, capped, uncapped)

        # Eqs. 16-20: expected cost of the loss ending slow start.
        loss_probability = 1.0 - q**packets
        timeout_cost = self._timeout_factor(p_arr) * self.rto / q
        q_end = self._timeout_probability(p_arr, end_window)
        loss_recovery = loss_probability * (
            q_end * timeout_cost + (1.0 - q_end) * self.rtt
        )

        # Eqs. 21-24: the congestion-avoidance remainder.
        remainder = np.maximum(packets - slow_start_packets, 0.0)
        congestion_avoidance = remainder / self._steady_state_rate(p_arr)

        delayed = np.full_like(p_arr, self.delayed_ack)
        latency = (
            handshake + slow_start + loss_recovery + congestion_avoidance
            + delayed
        )
        as_array = isinstance(size, np.ndarray) or isinstance(p, np.ndarray)

        def out(values: np.ndarray) -> ArrayLike:
            return values if as_array else float(values)

        return {
            "handshake": out(handshake),
            "slow_start": out(slow_start),
            "loss_recovery": out(loss_recovery),
            "congestion_avoidance": out(congestion_avoidance),
            "delayed_ack": out(delayed),
            "latency": out(latency),
        }

    def latency(self, size: ArrayLike, p: ArrayLike) -> ArrayLike:
        """Eq. 25: total expected transfer latency in seconds."""
        return self.components(size, p)["latency"]
