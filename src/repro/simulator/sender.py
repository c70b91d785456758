"""What the packet-level senders share: receiver wiring and loss detection.

Every sender on the dumbbell has a :class:`~repro.simulator.sink.Receiver`
behind the bottleneck: a data packet reaches it half the access delay
after the link delivers it, and the ack travels the other half back
(:class:`WiredSender`; TCP, TFRC and the probes).  The rate-paced senders
-- TFRC and the Poisson/CBR probes -- also detect their losses one way
(:class:`GapLossDetector`): a packet is lost when a later sequence number
is echoed first, and losses sent within one RTT of the loss that opened
the current loss event belong to that event.  TCP detects its losses
from duplicate acks and timeouts instead.
"""

from __future__ import annotations

from typing import Dict, Optional

from .engine import Simulator
from .flowstats import FlowStats
from .link import BottleneckLink
from .packets import Ack, Packet
from .sink import Receiver

__all__ = ["WiredSender", "GapLossDetector"]


class WiredSender:
    """A flow's sender, wired to its receiver across the bottleneck.

    Subclasses set ``label`` and define ``on_ack`` and ``_start``; the
    constructor schedules ``_start`` at ``start_time``.
    """

    def __init__(
        self,
        simulator: Simulator,
        link: BottleneckLink,
        flow_id: int,
        access_delay: float,
        packet_size: int,
        start_time: float,
    ) -> None:
        if access_delay < 0.0:
            raise ValueError("access_delay must be non-negative")
        self.simulator = simulator
        self.link = link
        self.flow_id = flow_id
        self.access_delay = float(access_delay)
        self.packet_size = int(packet_size)
        self.stats = FlowStats(flow_id=flow_id, label=self.label)
        self.receiver = Receiver(
            simulator,
            flow_id,
            reverse_delay=self.access_delay / 2.0,
            ack_callback=self.on_ack,
        )
        link.attach_receiver(flow_id, self._on_forward_delivery)
        simulator.schedule_at(max(start_time, simulator.now), self._start)

    def _on_forward_delivery(self, packet: Packet) -> None:
        # Apply the sender-side access delay on the forward path before the
        # packet reaches the receiver.
        self.simulator.schedule(
            self.access_delay / 2.0, lambda: self.receiver.on_packet(packet)
        )


class GapLossDetector(WiredSender):
    """Gap-based loss detection with one-RTT loss-event aggregation.

    Subclasses send packets numbered from ``next_sequence``, recording each
    send time in ``_send_times``, and set ``rate`` (recorded at each loss
    event) and ``current_rtt`` (the span over which losses aggregate).
    Every flow keeps ``rtt_estimate``, TFRC's 0.9 EWMA of the positive RTT
    samples, so that the per-ack path calls no per-sender hook; only TFRC
    paces by it.
    """

    def __init__(
        self,
        simulator: Simulator,
        link: BottleneckLink,
        flow_id: int,
        access_delay: float,
        packet_size: int,
        start_time: float,
    ) -> None:
        super().__init__(simulator, link, flow_id, access_delay, packet_size, start_time)
        self.rtt_estimate: Optional[float] = None
        self.next_sequence = 0
        self._highest_echoed = -1
        self._send_times: Dict[int, float] = {}
        self._last_loss_event_start_time = -1e9
        self._sequence_at_last_loss_event = -1
        self._had_first_loss = False

    def on_ack(self, ack: Ack) -> None:
        """Process a per-packet acknowledgment."""
        echoed = ack.echoed_sequence
        self.stats.packets_acked += 1
        sample = self.simulator.now - ack.echoed_send_time
        if sample > 0.0:
            self.stats.rtt_samples.append(sample)
            if self.rtt_estimate is None:
                self.rtt_estimate = sample
            else:
                self.rtt_estimate = 0.9 * self.rtt_estimate + 0.1 * sample

        if echoed > self._highest_echoed:
            for sequence in range(self._highest_echoed + 1, echoed):
                if sequence in self._send_times:
                    self._on_packet_lost(sequence)
            self._highest_echoed = echoed
        self._send_times.pop(echoed, None)

    def _on_packet_lost(self, sequence: int) -> Optional[int]:
        """Count a lost packet; if it opens a new loss event, record the
        event and return the packets since the previous one (for the first
        event, since the start), else return None."""
        send_time = self._send_times.pop(sequence, self.simulator.now)
        self.stats.packets_lost += 1
        if send_time - self._last_loss_event_start_time <= self.current_rtt:
            return None  # Within the current loss event; aggregated.
        interval = sequence - self._sequence_at_last_loss_event
        if self._had_first_loss and interval > 0:
            self.stats.loss_event_intervals.append(float(interval))
        self._had_first_loss = True
        self.stats.loss_event_times.append(self.simulator.now)
        self.stats.rate_at_loss_events.append(self.rate)
        self._last_loss_event_start_time = send_time
        self._sequence_at_last_loss_event = sequence
        return interval
