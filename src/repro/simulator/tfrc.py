"""TFRC sender: packet-level equation-based rate control.

Implements the TFRC protocol at the level of detail the paper's claims
need: per-packet pacing at the computed rate, loss-event detection with
one-RTT aggregation and an EWMA round-trip-time estimator (both shared
with the probes, :mod:`repro.simulator.sender`), the moving-average
loss-event interval estimator (TFRC weights, window ``L``), and the rate
update ``X = f(p, r)`` evaluated at every loss event and -- when the
*comprehensive* control element is enabled, as in the ns-2 and Internet
experiments -- also between loss events when the open loss interval grows
large enough to raise the estimate (equation (4) of the paper).  The lab
experiments of the paper disable the comprehensive element, which maps to
``comprehensive=False`` here.

Simplifications relative to RFC 3448, none of which affect the long-run
quantities the paper studies: feedback is per-packet rather than
once-per-RTT (the network model delivers acks in order on an uncongested
reverse path), and the initial slow-start phase doubles the rate each RTT
until the first loss event rather than tracking the receive rate.
"""

from __future__ import annotations

from typing import Optional

from ..core.estimator import MovingAverageEstimator, tfrc_weights
from ..core.formulas import LossThroughputFormula
from .engine import Simulator
from .link import BottleneckLink
from .packets import Packet, DEFAULT_PACKET_SIZE
from .sender import GapLossDetector

__all__ = ["TfrcSender"]


class TfrcSender(GapLossDetector):
    """Rate-based sender driven by a loss-throughput formula.

    Parameters
    ----------
    simulator:
        The event engine.
    link:
        The bottleneck link towards the receiver.
    flow_id:
        Unique flow identifier.
    formula:
        Loss-throughput formula ``f`` (its ``rtt`` attribute is only a
        default; the live RTT estimate rescales the rate).
    access_delay:
        Fixed two-way delay excluding bottleneck queueing, in seconds.
    history_length:
        Loss-interval history length ``L`` (TFRC weight profile).
    comprehensive:
        Enable the send-rate increase between loss events (equation (4)).
    packet_size:
        Data packet size in bytes.
    max_rate:
        Hard cap on the send rate in packets per second (models the access
        link; prevents the initial slow start from flooding the scheduler).
    start_time:
        Simulation time at which the flow starts.
    """

    label = "tfrc"

    def __init__(
        self,
        simulator: Simulator,
        link: BottleneckLink,
        flow_id: int,
        formula: LossThroughputFormula,
        access_delay: float,
        history_length: int = 8,
        comprehensive: bool = True,
        packet_size: int = DEFAULT_PACKET_SIZE,
        max_rate: float = 10_000.0,
        start_time: float = 0.0,
    ) -> None:
        if max_rate <= 0.0:
            raise ValueError("max_rate must be positive")
        self.estimator = MovingAverageEstimator(tfrc_weights(history_length))
        super().__init__(simulator, link, flow_id, access_delay, packet_size, start_time)
        self.formula = formula
        self.comprehensive = bool(comprehensive)
        self.max_rate = float(max_rate)
        self.history_length = int(history_length)
        # One-entry memo of f: (loss rate, f(loss rate)).
        self._memo_loss_rate: Optional[float] = None
        self._memo_formula_rate = 0.0

        # Rate state: about one packet per RTT, then slow start.
        self.rate = min(1.0 / max(self.access_delay, 1e-3), self.max_rate)
        self.in_slow_start = True

    # ------------------------------------------------------------------
    # Loss-event estimation
    # ------------------------------------------------------------------
    @property
    def current_rtt(self) -> float:
        """Best current RTT estimate (falls back to the fixed access delay)."""
        return self.rtt_estimate if self.rtt_estimate is not None else max(
            self.access_delay, 1e-3
        )

    def _loss_event_rate(self) -> float:
        """Loss-event rate ``p`` from the interval estimator."""
        estimate = self.estimator.current_estimate()
        if self.comprehensive and self._had_first_loss:
            open_interval = self.next_sequence - 1 - self._sequence_at_last_loss_event
            if open_interval > 0:
                estimate = self.estimator.provisional_estimate(float(open_interval))
        return 1.0 / max(estimate, 1e-9)

    # ------------------------------------------------------------------
    # Rate control
    # ------------------------------------------------------------------
    def _formula_rate(self) -> float:
        """Rate from ``f(p, r)`` rescaled to the live RTT estimate."""
        loss_rate = self._loss_event_rate()
        # Between loss events p often repeats exactly (about half the
        # evaluations in the ns-2 scenario); f is a pure function of p.
        if loss_rate != self._memo_loss_rate:
            self._memo_formula_rate = float(self.formula.rate(loss_rate))
            self._memo_loss_rate = loss_rate
        return self._memo_formula_rate * self.formula.rtt / self.current_rtt

    def _update_rate(self) -> None:
        if self.in_slow_start:
            return
        new_rate = self._formula_rate()
        self.rate = min(max(new_rate, 0.1), self.max_rate)

    def _slow_start_tick(self) -> None:
        """Double the rate once per RTT until the first loss event."""
        if not self.in_slow_start:
            return
        self.rate = min(self.rate * 2.0, self.max_rate)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send_next(self) -> None:
        now = self.simulator.now
        packet = Packet(
            flow_id=self.flow_id,
            sequence=self.next_sequence,
            size_bytes=self.packet_size,
            send_time=now,
        )
        self._send_times[self.next_sequence] = now
        self.next_sequence += 1
        self.stats.packets_sent += 1
        self.link.send(packet)

        if self.in_slow_start and self.next_sequence % max(
            int(self.rate * self.current_rtt), 1
        ) == 0:
            self._slow_start_tick()
        elif self.comprehensive:
            # Re-evaluate the rate so that the increase of equation (4)
            # takes effect as the open interval grows.
            self._update_rate()

        interval = 1.0 / max(self.rate, 1e-6)
        self.simulator.schedule(interval, self._send_next)

    _start = _send_next

    # ------------------------------------------------------------------
    # Loss events
    # ------------------------------------------------------------------
    def _on_packet_lost(self, sequence: int) -> None:
        interval = super()._on_packet_lost(sequence)
        if interval is None:
            return
        if self.in_slow_start:
            # First loss event: seed the history with the current interval
            # so that the formula-based rate starts near the current rate,
            # mirroring TFRC's history initialisation.
            self.estimator.seed_history([max(float(interval), 1.0)])
            self.in_slow_start = False
        elif interval > 0:
            self.estimator.record_interval(float(interval))
        self._update_rate()
