"""Unit tests for the packet-level simulator's RNG and queue disciplines."""

import numpy as np
import pytest

from repro.simulator import DropTailQueue, RedQueue, Simulator
from repro.simulator.packets import Packet


def make_packet(flow_id=0, sequence=0, size=1000, time=0.0):
    return Packet(flow_id=flow_id, sequence=sequence, size_bytes=size, send_time=time)


class TestSimulator:
    # The event-loop contract shared with FlowSimCore is in
    # test_engine_contract.py.
    def test_seeded_rng_is_reproducible(self):
        values_a = Simulator(seed=42).rng.random(5)
        values_b = Simulator(seed=42).rng.random(5)
        assert np.allclose(values_a, values_b)


class TestDropTailQueue:
    def test_accepts_until_full_then_drops(self):
        queue = DropTailQueue(capacity_packets=2)
        rng = np.random.default_rng(0)
        assert queue.enqueue(make_packet(sequence=0), 0.0, rng)
        assert queue.enqueue(make_packet(sequence=1), 0.0, rng)
        assert not queue.enqueue(make_packet(sequence=2), 0.0, rng)
        assert queue.total_drops == 1
        assert queue.occupancy == 2

    def test_fifo_order(self):
        queue = DropTailQueue(capacity_packets=10)
        rng = np.random.default_rng(0)
        for sequence in range(3):
            queue.enqueue(make_packet(sequence=sequence), 0.0, rng)
        assert queue.dequeue().sequence == 0
        assert queue.dequeue().sequence == 1
        assert queue.dequeue().sequence == 2
        assert queue.dequeue() is None

    def test_per_flow_counters(self):
        queue = DropTailQueue(capacity_packets=1)
        rng = np.random.default_rng(0)
        queue.enqueue(make_packet(flow_id=7), 0.0, rng)
        queue.enqueue(make_packet(flow_id=9), 0.0, rng)
        assert queue.enqueued_per_flow == {7: 1}
        assert queue.drops_per_flow == {9: 1}

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)


class TestRedQueue:
    def _make_queue(self, **kwargs):
        defaults = dict(
            capacity_packets=50,
            min_threshold=5.0,
            max_threshold=15.0,
            max_drop_probability=0.1,
            weight=0.5,
        )
        defaults.update(kwargs)
        return RedQueue(**defaults)

    def test_no_drops_below_min_threshold(self):
        queue = self._make_queue()
        rng = np.random.default_rng(1)
        accepted = [queue.enqueue(make_packet(sequence=i), 0.0, rng) for i in range(4)]
        assert all(accepted)

    def test_drops_appear_under_sustained_load(self):
        queue = self._make_queue()
        rng = np.random.default_rng(2)
        for i in range(200):
            queue.enqueue(make_packet(sequence=i), float(i) * 1e-3, rng)
        assert queue.total_drops > 0

    def test_forced_drop_above_max_threshold(self):
        queue = self._make_queue(weight=1.0)  # average tracks instantaneous queue
        rng = np.random.default_rng(3)
        for i in range(30):
            queue.enqueue(make_packet(sequence=i), 0.0, rng)
        # Average queue is now >= max threshold: next arrival must be dropped.
        assert not queue.enqueue(make_packet(sequence=99), 0.0, rng)

    def test_physical_buffer_limit(self):
        queue = self._make_queue(capacity_packets=5, min_threshold=100.0,
                                 max_threshold=200.0, weight=0.001)
        rng = np.random.default_rng(4)
        results = [queue.enqueue(make_packet(sequence=i), 0.0, rng) for i in range(10)]
        assert results[:5] == [True] * 5
        assert not any(results[5:])

    def test_average_queue_decays_when_idle(self):
        queue = self._make_queue(weight=0.5)
        rng = np.random.default_rng(5)
        for i in range(10):
            queue.enqueue(make_packet(sequence=i), 0.0, rng)
        while queue.dequeue() is not None:
            pass
        queue.notify_dequeue(0.0)
        average_before = queue.average_queue
        # An arrival much later sees a decayed average.
        queue.enqueue(make_packet(sequence=100), 10.0, rng)
        assert queue.average_queue < average_before

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RedQueue(capacity_packets=10, min_threshold=10.0, max_threshold=5.0)
        with pytest.raises(ValueError):
            RedQueue(capacity_packets=10, min_threshold=1.0, max_threshold=5.0,
                     max_drop_probability=0.0)
        with pytest.raises(ValueError):
            RedQueue(capacity_packets=10, min_threshold=1.0, max_threshold=5.0,
                     weight=0.0)
