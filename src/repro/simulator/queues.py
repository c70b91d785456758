"""Queue disciplines for the bottleneck link: DropTail and RED.

The paper's ns-2 experiments use a RED bottleneck (15 Mb/s, buffer 5/2 of
the bandwidth-delay product, thresholds 1/4 and 5/4 of it); the lab
experiments use DropTail with 64 and 100 packet buffers and a RED
configuration with an exponential-averaging constant of 0.002 and a drop
probability of 1/10 at the maximum threshold (non-"gentle" mode).  Both
disciplines are reproduced here.

A queue discipline decides, for each arriving packet, whether to enqueue or
drop it; the serving link drains it in FIFO order.  Queues count drops per
flow so that the measurement layer can attribute loss events.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, Dict, Optional

import numpy as np

from .packets import Packet

__all__ = ["QueueDiscipline", "DropTailQueue", "RedQueue"]


class QueueDiscipline(abc.ABC):
    """FIFO queue with a drop decision at enqueue time."""

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets < 1:
            raise ValueError("capacity_packets must be at least 1")
        self.capacity_packets = int(capacity_packets)
        self._queue: Deque[Packet] = deque()
        self.drops_per_flow: Dict[int, int] = {}
        self.enqueued_per_flow: Dict[int, int] = {}
        self.total_drops = 0
        self.total_enqueued = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        """Number of packets currently queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float, rng: np.random.Generator) -> bool:
        """Try to enqueue ``packet``; return True if accepted, False if dropped."""
        if self._should_drop(packet, now, rng):
            self.total_drops += 1
            self.drops_per_flow[packet.flow_id] = (
                self.drops_per_flow.get(packet.flow_id, 0) + 1
            )
            return False
        self._queue.append(packet)
        self.total_enqueued += 1
        self.enqueued_per_flow[packet.flow_id] = (
            self.enqueued_per_flow.get(packet.flow_id, 0) + 1
        )
        return True

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None if empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    @abc.abstractmethod
    def _should_drop(
        self, packet: Packet, now: float, rng: np.random.Generator
    ) -> bool:
        """Decide whether the arriving packet must be dropped."""


class DropTailQueue(QueueDiscipline):
    """Plain FIFO tail-drop queue with a fixed packet-count buffer."""

    def _should_drop(
        self, packet: Packet, now: float, rng: np.random.Generator
    ) -> bool:
        del packet, now, rng
        return len(self._queue) >= self.capacity_packets


class RedQueue(QueueDiscipline):
    """Random Early Detection queue (packet mode, non-gentle).

    Parameters
    ----------
    capacity_packets:
        Physical buffer size in packets.
    min_threshold, max_threshold:
        RED thresholds on the *average* queue length, in packets.
    max_drop_probability:
        Drop probability at the maximum threshold (``max_p``); the lab
        configuration in the paper uses 0.1, ns-2's default is 0.1 as well.
    weight:
        Exponential averaging constant ``w_q`` for the average queue size;
        the lab configuration targets 0.002.
    use_count_correction:
        Apply the standard RED correction ``p_b / (1 - count * p_b)`` that
        spaces drops more evenly (ns-2 does this); disable for the textbook
        memoryless variant.
    """

    def __init__(
        self,
        capacity_packets: int,
        min_threshold: float,
        max_threshold: float,
        max_drop_probability: float = 0.1,
        weight: float = 0.002,
        use_count_correction: bool = True,
    ) -> None:
        super().__init__(capacity_packets)
        if not 0.0 < min_threshold < max_threshold:
            raise ValueError("need 0 < min_threshold < max_threshold")
        if not 0.0 < max_drop_probability <= 1.0:
            raise ValueError("max_drop_probability must be in (0, 1]")
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self.max_drop_probability = float(max_drop_probability)
        self.weight = float(weight)
        self.use_count_correction = bool(use_count_correction)
        self.average_queue = 0.0
        self._count_since_drop = 0
        self._idle_since: Optional[float] = 0.0
        #: Packets per second drained when idle, used to age the average
        #: queue size while the queue is empty (set by the owning link).
        self.idle_drain_rate: float = 1000.0

    # ------------------------------------------------------------------
    # Average queue tracking
    # ------------------------------------------------------------------
    def _update_average(self, now: float) -> None:
        if self._queue:
            self.average_queue = (
                1.0 - self.weight
            ) * self.average_queue + self.weight * len(self._queue)
            self._idle_since = None
        else:
            # While idle, decay the average as if that many small packets
            # had been transmitted (RED's idle-time adjustment).
            if self._idle_since is None:
                self._idle_since = now
            idle_packets = max(0.0, (now - self._idle_since)) * self.idle_drain_rate
            decay = (1.0 - self.weight) ** idle_packets
            self.average_queue *= decay
            self._idle_since = now

    def notify_dequeue(self, now: float) -> None:
        """Hook for the link to record when the queue goes idle."""
        if not self._queue:
            self._idle_since = now

    # ------------------------------------------------------------------
    # Drop decision
    # ------------------------------------------------------------------
    def _should_drop(
        self, packet: Packet, now: float, rng: np.random.Generator
    ) -> bool:
        del packet
        self._update_average(now)
        if len(self._queue) >= self.capacity_packets:
            self._count_since_drop = 0
            return True
        average = self.average_queue
        if average < self.min_threshold:
            self._count_since_drop += 1
            return False
        if average >= self.max_threshold:
            # Non-gentle RED: drop every arrival once the average exceeds
            # the maximum threshold.
            self._count_since_drop = 0
            return True
        base_probability = (
            self.max_drop_probability
            * (average - self.min_threshold)
            / (self.max_threshold - self.min_threshold)
        )
        probability = base_probability
        if self.use_count_correction:
            denominator = 1.0 - self._count_since_drop * base_probability
            if denominator <= 0.0:
                probability = 1.0
            else:
                probability = min(1.0, base_probability / denominator)
        if rng.random() < probability:
            self._count_since_drop = 0
            return True
        self._count_since_drop += 1
        return False
