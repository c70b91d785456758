"""Window-based TCP sender (Sack/NewReno-flavoured AIMD).

The paper's ns-2 experiments use TCP Sack1 and the lab experiments use the
Linux 2.4 stack.  For the claims under study what matters is the AIMD
window dynamics, loss recovery without unnecessary timeouts when a single
packet is lost, and the resulting loss-event and RTT processes.  The sender
implemented here follows the standard congestion-control state machine:

* slow start (window doubles per RTT) until ``ssthresh``;
* congestion avoidance (one packet per RTT);
* fast retransmit / fast recovery on three duplicate acks -- the window is
  halved once per loss event (all losses within one RTT count as one
  event, which is also how the measurement layer aggregates loss events);
* retransmission timeout with exponential backoff when recovery fails.

RTT is estimated with the usual SRTT/RTTVAR filter; retransmitted packets
are not sampled (Karn's algorithm).
"""

from __future__ import annotations

from typing import Optional

from .engine import Event, Simulator
from .link import BottleneckLink
from .packets import Ack, Packet, DEFAULT_PACKET_SIZE
from .sender import WiredSender

__all__ = ["TcpSender"]


class TcpSender(WiredSender):
    """AIMD window-based sender with fast recovery and RTO.

    Parameters
    ----------
    simulator:
        The event engine.
    link:
        The bottleneck link towards the receiver.
    flow_id:
        Unique flow identifier.
    access_delay:
        One-way delay from this sender to the bottleneck plus from the
        bottleneck to the receiver's ack path back (i.e. the fixed part of
        the RTT excluding bottleneck queueing/transmission), in seconds.
        Half is applied on the reverse path by the receiver.
    packet_size:
        Data packet size in bytes.
    initial_ssthresh:
        Initial slow-start threshold in packets.
    max_window:
        Upper bound on the congestion window in packets (models socket
        buffer limits; set high to avoid receiver-window limitation, as
        the paper's experiments do).
    start_time:
        Simulation time at which the flow starts.
    """

    label = "tcp"
    DUPACK_THRESHOLD = 3
    MIN_RTO = 0.2
    INITIAL_RTO = 1.0

    def __init__(
        self,
        simulator: Simulator,
        link: BottleneckLink,
        flow_id: int,
        access_delay: float,
        packet_size: int = DEFAULT_PACKET_SIZE,
        initial_ssthresh: float = 64.0,
        max_window: float = 10_000.0,
        start_time: float = 0.0,
    ) -> None:
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        super().__init__(simulator, link, flow_id, access_delay, packet_size, start_time)
        self.max_window = float(max_window)

        # Congestion control state.
        self.cwnd = 1.0
        self.ssthresh = float(initial_ssthresh)
        self.next_sequence = 0
        self.highest_acked = 0  # next expected cumulative ack
        self.duplicate_acks = 0
        self.in_recovery = False
        self.recovery_point = 0

        # RTT estimation.
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = self.INITIAL_RTO
        self._rto_backoff = 1.0
        self._rto_event: Optional[Event] = None

        # Loss-event aggregation (one event per RTT of losses).
        self._last_loss_event_time = -1e9
        self._packets_at_last_loss_event = 0

    def _start(self) -> None:
        self._send_allowed_packets()
        self._restart_rto_timer()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Packets in flight (unacknowledged)."""
        return self.next_sequence - self.highest_acked

    def _send_allowed_packets(self) -> None:
        window = min(self.cwnd, self.max_window)
        while self.outstanding < int(window):
            self._transmit(self.next_sequence, is_retransmission=False)
            self.next_sequence += 1

    def _transmit(self, sequence: int, is_retransmission: bool) -> None:
        packet = Packet(
            flow_id=self.flow_id,
            sequence=sequence,
            size_bytes=self.packet_size,
            send_time=self.simulator.now,
            is_retransmission=is_retransmission,
        )
        self.stats.packets_sent += 1
        self.link.send(packet)

    # ------------------------------------------------------------------
    # Ack processing
    # ------------------------------------------------------------------
    def on_ack(self, ack: Ack) -> None:
        """Handle an acknowledgment arriving back at the sender."""
        if not ack.echoed_send_time < 0 and not self._is_retransmitted_echo(ack):
            self._sample_rtt(self.simulator.now - ack.echoed_send_time)

        if ack.cumulative_sequence > self.highest_acked:
            newly_acked = ack.cumulative_sequence - self.highest_acked
            self.highest_acked = ack.cumulative_sequence
            self.stats.packets_acked += newly_acked
            self.duplicate_acks = 0
            self._rto_backoff = 1.0
            if self.in_recovery and self.highest_acked >= self.recovery_point:
                self.in_recovery = False
            self._open_window(newly_acked)
            self._restart_rto_timer()
        else:
            self.duplicate_acks += 1
            if (
                self.duplicate_acks == self.DUPACK_THRESHOLD
                and not self.in_recovery
            ):
                self._fast_retransmit()
        self._send_allowed_packets()

    def _is_retransmitted_echo(self, ack: Ack) -> bool:
        # Retransmitted packets carry is_retransmission at send time; the
        # ack does not echo the flag, so approximate Karn's rule by not
        # sampling while in recovery.
        del ack
        return self.in_recovery

    def _open_window(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / max(self.cwnd, 1.0)
        self.cwnd = min(self.cwnd, self.max_window)

    # ------------------------------------------------------------------
    # Loss handling
    # ------------------------------------------------------------------
    def _record_loss_event(self) -> None:
        now = self.simulator.now
        rtt = self.srtt if self.srtt is not None else self.access_delay
        if now - self._last_loss_event_time <= rtt:
            return  # Same loss event (losses within one RTT are aggregated).
        interval = self.stats.packets_sent - self._packets_at_last_loss_event
        if self._last_loss_event_time > -1e8 and interval > 0:
            self.stats.loss_event_intervals.append(float(interval))
        self.stats.loss_event_times.append(now)
        self.stats.rate_at_loss_events.append(
            self.cwnd / max(rtt, 1e-6)
        )
        self._last_loss_event_time = now
        self._packets_at_last_loss_event = self.stats.packets_sent

    def _fast_retransmit(self) -> None:
        self._record_loss_event()
        self.stats.packets_lost += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.in_recovery = True
        self.recovery_point = self.next_sequence
        self._transmit(self.highest_acked, is_retransmission=True)
        self._restart_rto_timer()

    def _on_timeout(self) -> None:
        if self.outstanding <= 0:
            self._restart_rto_timer()
            return
        self._record_loss_event()
        self.stats.packets_lost += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.duplicate_acks = 0
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._transmit(self.highest_acked, is_retransmission=True)
        self._restart_rto_timer()
        self._send_allowed_packets()

    # ------------------------------------------------------------------
    # Timers and RTT estimation
    # ------------------------------------------------------------------
    def _sample_rtt(self, sample: float) -> None:
        if sample <= 0.0:
            return
        self.stats.rtt_samples.append(sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(self.MIN_RTO, self.srtt + 4.0 * self.rttvar)

    def _restart_rto_timer(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        timeout = self.rto * self._rto_backoff
        self._rto_event = self.simulator.schedule(timeout, self._on_timeout)
