"""TFRC sender: packet-level equation-based rate control.

Implements the TFRC protocol at the level of detail the paper's claims
need: per-packet pacing at the computed rate, loss-event detection with
one-RTT aggregation, the moving-average loss-event interval estimator
(TFRC weights, window ``L``), an EWMA round-trip-time estimator, and the
rate update ``X = f(p, r)`` evaluated at every loss event and -- when the
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

from typing import Dict, Optional

from ..core.estimator import MovingAverageEstimator, tfrc_weights
from ..core.formulas import LossThroughputFormula
from .engine import Simulator
from .flowstats import FlowStats
from .link import BottleneckLink
from .packets import Ack, Packet, DEFAULT_PACKET_SIZE
from .sink import Receiver

__all__ = ["TfrcSender"]


class TfrcSender:
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
        if access_delay < 0.0:
            raise ValueError("access_delay must be non-negative")
        if max_rate <= 0.0:
            raise ValueError("max_rate must be positive")
        self.simulator = simulator
        self.link = link
        self.flow_id = flow_id
        self.formula = formula
        self.access_delay = float(access_delay)
        self.comprehensive = bool(comprehensive)
        self.packet_size = int(packet_size)
        self.max_rate = float(max_rate)
        self.stats = FlowStats(flow_id=flow_id, label="tfrc")

        self.estimator = MovingAverageEstimator(tfrc_weights(history_length))
        self.history_length = int(history_length)
        # One-entry memo of f: (loss rate, f(loss rate)).
        self._memo_loss_rate: Optional[float] = None
        self._memo_formula_rate = 0.0

        # Rate state.
        self.rate = 1.0 / max(self.access_delay, 1e-3)  # ~1 packet per RTT.
        self.rate = min(self.rate, self.max_rate)
        self.in_slow_start = True

        # RTT estimation (EWMA with TFRC's 0.9 smoothing).
        self.rtt_estimate: Optional[float] = None

        # Loss detection state.
        self.next_sequence = 0
        self._highest_echoed = -1
        self._send_times: Dict[int, float] = {}
        self._last_loss_event_start_time = -1e9
        self._sequence_at_last_loss_event = -1
        self._had_first_loss = False

        self.receiver = Receiver(
            simulator,
            flow_id,
            reverse_delay=self.access_delay / 2.0,
            ack_callback=self.on_ack,
        )
        link.attach_receiver(flow_id, self._on_forward_delivery)

        self.simulator.schedule_at(max(start_time, simulator.now), self._send_next)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _on_forward_delivery(self, packet: Packet) -> None:
        self.simulator.schedule(
            self.access_delay / 2.0, lambda: self.receiver.on_packet(packet)
        )

    # ------------------------------------------------------------------
    # RTT and loss-event estimation
    # ------------------------------------------------------------------
    def _sample_rtt(self, sample: float) -> None:
        if sample <= 0.0:
            return
        self.stats.rtt_samples.append(sample)
        if self.rtt_estimate is None:
            self.rtt_estimate = sample
        else:
            self.rtt_estimate = 0.9 * self.rtt_estimate + 0.1 * sample

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

    # ------------------------------------------------------------------
    # Ack processing and loss detection
    # ------------------------------------------------------------------
    def on_ack(self, ack: Ack) -> None:
        """Process a per-packet acknowledgment."""
        echoed = ack.echoed_sequence
        self.stats.packets_acked += 1
        self._sample_rtt(self.simulator.now - ack.echoed_send_time)

        if echoed > self._highest_echoed:
            lost_sequences = [
                sequence
                for sequence in range(self._highest_echoed + 1, echoed)
                if sequence in self._send_times
            ]
            for sequence in lost_sequences:
                self._on_packet_lost(sequence)
            self._highest_echoed = echoed
        self._send_times.pop(echoed, None)

    def _on_packet_lost(self, sequence: int) -> None:
        send_time = self._send_times.pop(sequence, self.simulator.now)
        self.stats.packets_lost += 1
        rtt = self.current_rtt
        if send_time - self._last_loss_event_start_time <= rtt:
            return  # Within the current loss event; aggregated.
        # A new loss event begins.
        if self._had_first_loss:
            interval = sequence - self._sequence_at_last_loss_event
            if interval > 0:
                self.stats.loss_event_intervals.append(float(interval))
                self.estimator.record_interval(float(interval))
        else:
            # First loss event: seed the history with the current interval
            # so that the formula-based rate starts near the current rate,
            # mirroring TFRC's history initialisation.
            initial = max(float(sequence + 1), 1.0)
            self.estimator.seed_history([initial])
            self._had_first_loss = True
            self.in_slow_start = False
        self.stats.loss_event_times.append(self.simulator.now)
        self.stats.rate_at_loss_events.append(self.rate)
        self._last_loss_event_start_time = send_time
        self._sequence_at_last_loss_event = sequence
        self._update_rate()
