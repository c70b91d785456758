"""Non-adaptive probe sources and the adaptive audio source.

Three source kinds complete the paper's experimental cast:

* :class:`PoissonSource` -- sends packets with exponential inter-packet
  times at a fixed average rate.  Used in Figure 7 to measure ``p''``, the
  loss-event rate of a non-adaptive source.
* :class:`CbrSource` -- deterministic constant bit rate probe (the paper
  notes a CBR source should see roughly the time-average network loss
  event rate, modulo aliasing).
* :class:`AudioSource` -- the Claim 2 sender: a *fixed packet clock*
  (default one packet per 20 ms) whose send rate is adjusted by varying
  packet lengths according to the equation-based control.  Because losses
  are per packet and the packet clock is fixed, the inter-loss duration is
  independent of the send rate, which is the regime of the second part of
  Theorem 2.

Probe sources detect their losses on the path TFRC uses
(:class:`~repro.simulator.sender.GapLossDetector`: gap detection on
per-packet acks) and aggregate loss events over one nominal RTT so that
their measured ``p`` is comparable with the adaptive flows'.
"""

from __future__ import annotations

from typing import Optional

from ..core.estimator import MovingAverageEstimator, tfrc_weights
from ..core.formulas import LossThroughputFormula
from .engine import Simulator
from .flowstats import FlowStats
from .link import BottleneckLink
from .packets import Packet, DEFAULT_PACKET_SIZE
from .sender import GapLossDetector

__all__ = ["PoissonSource", "CbrSource", "AudioSource"]


class _ProbeBase(GapLossDetector):
    """Common machinery of the non-adaptive probe sources."""

    label = "probe"

    def __init__(
        self,
        simulator: Simulator,
        link: BottleneckLink,
        flow_id: int,
        rate: float,
        access_delay: float,
        packet_size: int = DEFAULT_PACKET_SIZE,
        start_time: float = 0.0,
    ) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        super().__init__(simulator, link, flow_id, access_delay, packet_size, start_time)
        self.rate = float(rate)
        # Loss events aggregate over the nominal RTT, not the live estimate.
        self.current_rtt = self.access_delay if self.access_delay > 0 else 0.05

    def _inter_packet_time(self) -> float:
        raise NotImplementedError

    def _send_next(self) -> None:
        packet = Packet(
            flow_id=self.flow_id,
            sequence=self.next_sequence,
            size_bytes=self.packet_size,
            send_time=self.simulator.now,
        )
        self._send_times[self.next_sequence] = self.simulator.now
        self.next_sequence += 1
        self.stats.packets_sent += 1
        self.link.send(packet)
        self.simulator.schedule(self._inter_packet_time(), self._send_next)

    _start = _send_next


class PoissonSource(_ProbeBase):
    """Probe with exponential inter-packet times at a fixed mean rate."""

    label = "poisson"

    def _inter_packet_time(self) -> float:
        return float(self.simulator.rng.exponential(1.0 / self.rate))


class CbrSource(_ProbeBase):
    """Constant-bit-rate probe with deterministic inter-packet times."""

    label = "cbr"

    def _inter_packet_time(self) -> float:
        return 1.0 / self.rate


class AudioSource:
    """Claim 2's adaptive audio sender: fixed packet clock, variable length.

    The source emits one packet every ``packet_period`` seconds.  Its send
    rate (bytes per second) is ``packet_length * packet_period^{-1}``, and
    the equation-based control adjusts the *packet length* so that the rate
    equals ``f(p, r)`` (expressed in packets of the reference size per
    second, so the long-run normalised throughput is directly comparable to
    ``f(p)``).  Loss events are per lost packet (no RTT aggregation),
    matching the Bernoulli-dropper experiment of Figure 6.

    Parameters
    ----------
    simulator:
        The event engine.
    loss_probability:
        Per-packet drop probability of the loss module (Bernoulli dropper).
    formula:
        Loss-throughput formula ``f``.
    history_length:
        Loss-interval estimator window ``L`` (the paper's Figure 6 uses 4).
    packet_period:
        Fixed inter-packet time in seconds (20 ms in the paper).
    comprehensive:
        Enable the between-loss increase of the estimate (equation (4)).
    duration:
        How long to run when :meth:`run` is used standalone.
    """

    label = "audio"

    def __init__(
        self,
        simulator: Simulator,
        loss_probability: float,
        formula: LossThroughputFormula,
        history_length: int = 4,
        packet_period: float = 0.02,
        comprehensive: bool = True,
        flow_id: int = 0,
    ) -> None:
        if not 0.0 < loss_probability < 1.0:
            raise ValueError("loss_probability must be in (0, 1)")
        if packet_period <= 0.0:
            raise ValueError("packet_period must be positive")
        self.simulator = simulator
        self.loss_probability = float(loss_probability)
        self.formula = formula
        self.packet_period = float(packet_period)
        self.comprehensive = bool(comprehensive)
        self.stats = FlowStats(flow_id=flow_id, label=self.label)
        self.estimator = MovingAverageEstimator(tfrc_weights(history_length))
        # One-entry memo of f: (estimate, f(1/estimate)).
        self._memo_estimate: Optional[float] = None
        self._memo_rate = 0.0

        self._packets_since_loss = 0
        self._had_first_loss = False
        #: Send rate in force before each packet (packets of reference size
        #: per second); time-averaging these gives ``x_bar`` because the
        #: packet clock is uniform.
        self.rate_samples: list[float] = []
        self.estimate_samples: list[float] = []

        self.simulator.schedule_at(simulator.now, self._emit_packet)

    # ------------------------------------------------------------------
    def _current_rate(self) -> float:
        estimate = self.estimator.current_estimate()
        if self.comprehensive and self._had_first_loss and self._packets_since_loss > 0:
            estimate = self.estimator.provisional_estimate(
                float(self._packets_since_loss)
            )
        estimate = max(estimate, 1e-9)
        # The estimate repeats exactly between loss events whenever the
        # open interval does not raise it; f is a pure function of it.
        if estimate != self._memo_estimate:
            self._memo_rate = float(self.formula.rate_of_interval(estimate))
            self._memo_estimate = estimate
        return self._memo_rate

    def _emit_packet(self) -> None:
        rate = self._current_rate()
        self.rate_samples.append(rate)
        self.estimate_samples.append(self.estimator.current_estimate())
        self.stats.packets_sent += 1
        self._packets_since_loss += 1
        if self.simulator.rng.random() < self.loss_probability:
            self._on_loss()
        else:
            self.stats.packets_acked += 1
        self.simulator.schedule(self.packet_period, self._emit_packet)

    def _on_loss(self) -> None:
        self.stats.packets_lost += 1
        self.stats.loss_event_times.append(self.simulator.now)
        self.stats.rate_at_loss_events.append(self.rate_samples[-1])
        interval = float(self._packets_since_loss)
        if self._had_first_loss:
            self.stats.loss_event_intervals.append(interval)
            self.estimator.record_interval(interval)
        else:
            self.estimator.seed_history([max(interval, 1.0)])
            self._had_first_loss = True
        self._packets_since_loss = 0

    # ------------------------------------------------------------------
    def mean_rate(self, discard_fraction: float = 0.1) -> float:
        """Time-average send rate, discarding an initial transient."""
        if not self.rate_samples:
            return 0.0
        start = int(len(self.rate_samples) * discard_fraction)
        samples = self.rate_samples[start:]
        return float(sum(samples) / len(samples)) if samples else 0.0

    def normalized_throughput(self, discard_fraction: float = 0.1) -> float:
        """``x_bar / f(p)`` with ``p`` the empirical loss-event rate."""
        intervals = self.stats.loss_event_intervals
        if not intervals:
            raise ValueError("no complete loss-event intervals observed yet")
        mean_interval = float(sum(intervals) / len(intervals))
        loss_rate = 1.0 / mean_interval
        return self.mean_rate(discard_fraction) / float(self.formula.rate(loss_rate))
