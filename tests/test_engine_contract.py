"""Contract of the one discrete-event loop, run against both of its faces.

The packet-level :class:`repro.simulator.Simulator` and the flow-level
:class:`repro.flowsim.FlowSimCore` are the same
:class:`repro.simulator.engine.EventLoop` under different telemetry
names, so every case here runs on both: ordering, ties, cancellation,
the run horizon, periodic callbacks, ``stop()`` and the rejection of
past and NaN times.
"""

import numpy as np
import pytest

from repro.flowsim import FlowSimCore
from repro.simulator import Simulator


@pytest.fixture(
    params=[lambda: Simulator(seed=1), FlowSimCore],
    ids=["Simulator", "FlowSimCore"],
)
def loop(request):
    return request.param()


class TestOrdering:
    def test_events_run_in_time_order(self, loop):
        order = []
        loop.schedule(2.0, lambda: order.append("late"))
        loop.schedule(1.0, lambda: order.append("early"))
        loop.schedule(1.5, lambda: order.append("middle"))
        loop.run(until=10.0)
        assert order == ["early", "middle", "late"]
        assert loop.now == 10.0
        assert loop.events_processed == 3

    def test_ties_break_by_insertion_order(self, loop):
        order = []
        for label in ("first", "second", "third"):
            loop.schedule(5.0, lambda label=label: order.append(label))
        loop.run(until=5.0)
        assert order == ["first", "second", "third"]

    def test_events_can_schedule_events(self, loop):
        times = []

        def chain():
            times.append(loop.now)
            if len(times) < 3:
                loop.schedule(1.0, chain)

        loop.schedule(1.0, chain)
        loop.run(until=10.0)
        assert times == pytest.approx([1.0, 2.0, 3.0])

    def test_heap_order_under_ties_and_cancellations(self, loop):
        """Thousands of events on few distinct times, a third cancelled:
        the executed order is the survivors sorted by (time, insertion)."""
        rng = np.random.default_rng(7)
        times = [float(t) for t in rng.integers(0, 40, size=4000) / 4.0]
        executed = []
        events = [
            loop.schedule_at(t, lambda index=index: executed.append(index))
            for index, t in enumerate(times)
        ]
        cancelled = set(rng.choice(len(events), size=1300, replace=False).tolist())
        for index in cancelled:
            events[index].cancel()
        loop.run(until=max(times))
        expected = sorted(
            (index for index in range(len(times)) if index not in cancelled),
            key=lambda index: (times[index], index),
        )
        assert executed == expected
        assert loop.events_processed == len(expected)
        assert loop.pending_events() == 0


class TestCancellation:
    def test_cancelled_event_is_skipped(self, loop):
        fired = []
        event = loop.schedule(1.0, lambda: fired.append("cancelled"))
        loop.schedule(2.0, lambda: fired.append("kept"))
        event.cancel()
        loop.run(until=5.0)
        assert fired == ["kept"]
        assert loop.events_processed == 1


class TestHorizon:
    def test_clock_advances_to_until(self, loop):
        loop.run(until=5.0)
        assert loop.now == pytest.approx(5.0)

    def test_events_beyond_horizon_stay_pending(self, loop):
        fired = []
        loop.schedule(1.0, lambda: fired.append("near"))
        loop.schedule(100.0, lambda: fired.append("far"))
        loop.run(until=10.0)
        assert fired == ["near"]
        assert loop.pending_events() == 1
        loop.run(until=100.0)
        assert fired == ["near", "far"]


class TestPeriodic:
    def test_periodic_event_fires_every_interval(self, loop):
        times = []
        loop.schedule_periodic(2.0, lambda: times.append(loop.now))
        loop.run(until=10.0)
        assert times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_periodic_cancel_stops_recurrence(self, loop):
        times = []
        handle = loop.schedule_periodic(1.0, lambda: times.append(loop.now))
        loop.schedule(3.5, handle.cancel)
        loop.run(until=10.0)
        assert times == [1.0, 2.0, 3.0]


class TestStop:
    def test_stop_halts_the_loop(self, loop):
        fired = []
        loop.schedule(1.0, lambda: (fired.append("a"), loop.stop()))
        loop.schedule(2.0, lambda: fired.append("b"))
        loop.run(until=10.0)
        assert fired == ["a"]

    def test_stop_leaves_the_clock_at_the_last_event(self, loop):
        """The clock never runs backwards across a stopped run."""
        seen = []
        loop.schedule(1.0, loop.stop)
        loop.schedule(2.0, lambda: seen.append(loop.now))
        loop.run(until=5.0)
        assert loop.now == 1.0
        assert loop.pending_events() == 1
        loop.run(until=5.0)
        assert seen == [2.0]
        assert loop.now == 5.0


class TestRejection:
    def test_rejects_scheduling_in_the_past(self, loop):
        loop.schedule(1.0, loop.stop)
        loop.run(until=1.0)
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)
        loop.run(until=5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            loop.run(until=4.0)

    def test_rejects_nan_times(self, loop):
        nan = float("nan")
        fired = []
        with pytest.raises(ValueError, match="delay"):
            loop.schedule(nan, lambda: fired.append("delay"))
        with pytest.raises(ValueError, match="nan"):
            loop.schedule_at(nan, lambda: fired.append("time"))
        with pytest.raises(ValueError, match="interval"):
            loop.schedule_periodic(nan, lambda: fired.append("periodic"))
        with pytest.raises(ValueError):
            loop.run(until=nan)
        loop.run(until=1.0)
        assert fired == []
        assert loop.pending_events() == 0
