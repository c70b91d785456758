"""Bottleneck link: queue + transmission + propagation.

The dumbbell scenarios of the paper have a single congested link.  The
:class:`BottleneckLink` couples a queue discipline with a serving rate and
a one-way propagation delay: packets accepted by the queue are transmitted
at the link capacity in FIFO order and delivered to their flow's receiver
after the propagation delay.  Dropped packets are reported to the drop
monitor (used by the measurement layer to attribute loss events).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .engine import Simulator
from .packets import Packet
from .queues import QueueDiscipline, RedQueue

__all__ = ["BottleneckLink"]

DeliveryCallback = Callable[[Packet], None]
DropCallback = Callable[[Packet, float], None]


class BottleneckLink:
    """A serving link fed by a queue discipline.

    Parameters
    ----------
    simulator:
        The event engine.
    queue:
        The queue discipline guarding the link.
    capacity_bps:
        Link capacity in bits per second.
    propagation_delay:
        One-way propagation delay in seconds applied after transmission.
    """

    def __init__(
        self,
        simulator: Simulator,
        queue: QueueDiscipline,
        capacity_bps: float,
        propagation_delay: float,
    ) -> None:
        if capacity_bps <= 0.0:
            raise ValueError("capacity_bps must be positive")
        if propagation_delay < 0.0:
            raise ValueError("propagation_delay must be non-negative")
        self.simulator = simulator
        self.queue = queue
        self.capacity_bps = float(capacity_bps)
        self.propagation_delay = float(propagation_delay)
        self._busy = False
        self._receivers: Dict[int, DeliveryCallback] = {}
        self._drop_monitors: list[DropCallback] = []
        self.delivered_packets = 0
        self.delivered_bytes = 0
        if isinstance(queue, RedQueue):
            # Let RED age its average queue size at the link's packet rate
            # (assuming 1000-byte packets, which is what the scenarios use).
            queue.idle_drain_rate = self.capacity_bps / (8.0 * 1000.0)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_receiver(self, flow_id: int, callback: DeliveryCallback) -> None:
        """Register the delivery callback for a flow's packets."""
        self._receivers[flow_id] = callback

    def add_drop_monitor(self, callback: DropCallback) -> None:
        """Register a callback invoked as ``callback(packet, time)`` on drops."""
        self._drop_monitors.append(callback)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmission_time(self, packet: Packet) -> float:
        """Serialisation delay of a packet at the link capacity."""
        return packet.size_bytes * 8.0 / self.capacity_bps

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; returns False if the queue dropped it."""
        accepted = self.queue.enqueue(packet, self.simulator.now, self.simulator.rng)
        if not accepted:
            for monitor in self._drop_monitors:
                monitor(packet, self.simulator.now)
            return False
        if not self._busy:
            self._start_service()
        return True

    def _start_service(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            if isinstance(self.queue, RedQueue):
                self.queue.notify_dequeue(self.simulator.now)
            return
        self._busy = True
        service_time = self.transmission_time(packet)
        self.simulator.schedule(service_time, lambda: self._finish_service(packet))

    def _finish_service(self, packet: Packet) -> None:
        self.delivered_packets += 1
        self.delivered_bytes += packet.size_bytes
        self.simulator.schedule(
            self.propagation_delay, lambda: self._deliver(packet)
        )
        self._start_service()

    def _deliver(self, packet: Packet) -> None:
        receiver = self._receivers.get(packet.flow_id)
        if receiver is not None:
            receiver(packet)
