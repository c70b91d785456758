"""Exactness of the event loop's tuple heap and of the per-packet caches.

The packet simulator keeps three shortcuts on its per-event path, each
of which must leave every trajectory bit-identical:

* heap entries are ``(time, sequence, event)`` tuples ordered in C --
  checked by running the same dumbbell and audio point on the engine
  and on a reference scheduler that orders :class:`Event`-like objects
  through a Python ``__lt__``, and requiring ``==`` on every result;
* :class:`~repro.core.estimator.MovingAverageEstimator` caches
  ``theta_hat_n`` and its tail sum -- checked against a fresh
  ``np.dot`` after arbitrary operation sequences;
* the TFRC and audio senders memoise ``f`` for a repeated argument --
  checked against a direct evaluation at every call of a run.

Both runs of a differential test happen in one process, so the check
holds on any CPU without pinned golden values.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Ns2Scenario
from repro.core.estimator import MovingAverageEstimator, tfrc_weights, uniform_weights
from repro.core.formulas import PftkSimplifiedFormula, PftkStandardFormula
from repro.simulator import (
    AudioSource,
    BottleneckLink,
    DropTailQueue,
    Simulator,
    TfrcSender,
    scenarios,
)


class _ReferenceEvent:
    __slots__ = ("time", "sequence", "callback", "cancelled")

    def __init__(self, time, sequence, callback):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence


class ReferenceSimulator(Simulator):
    """Heap of event objects ordered by ``(time, sequence)`` in ``__lt__``."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self._objects = []

    def schedule(self, delay, callback):
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time, callback):
        if time < self._now:
            raise ValueError("cannot schedule in the past")
        event = _ReferenceEvent(time, next(self._counter), callback)
        heapq.heappush(self._objects, event)
        return event

    def run(self, until):
        self._stopped = False
        while self._objects and not self._stopped:
            event = self._objects[0]
            if event.time > until:
                break
            heapq.heappop(self._objects)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self.events_processed += 1
        self._now = max(self._now, until)


# ----------------------------------------------------------------------
# Tuple heap vs. object heap
# ----------------------------------------------------------------------
class TestTupleHeapMatchesObjectHeap:
    def test_ns2_dumbbell(self, monkeypatch):
        config = Ns2Scenario(num_connections=2, duration=20.0).build(seed=3)
        engine = scenarios.run_dumbbell(config)

        references = []

        def reference_simulator(seed=None):
            references.append(ReferenceSimulator(seed))
            return references[-1]

        monkeypatch.setattr(scenarios, "Simulator", reference_simulator)
        reference = scenarios.run_dumbbell(config)

        assert len(references) == 1 and references[0].events_processed > 10_000
        assert engine.all_flows() and engine.tfrc_flows[0].loss_event_intervals
        assert engine.all_flows() == reference.all_flows()
        assert engine.measured_duration == reference.measured_duration

    def test_audio_point(self):
        def run(simulator):
            source = AudioSource(
                simulator,
                loss_probability=0.05,
                formula=PftkSimplifiedFormula(rtt=1.0),
                history_length=4,
                packet_period=0.002,
            )
            simulator.run(until=30.0)
            return simulator, source

        engine, engine_source = run(Simulator(seed=12))
        reference, reference_source = run(ReferenceSimulator(seed=12))

        assert engine.events_processed == reference.events_processed > 10_000
        assert engine_source.rate_samples == reference_source.rate_samples
        assert engine_source.estimate_samples == reference_source.estimate_samples
        assert engine_source.stats == reference_source.stats
        assert (
            engine_source.normalized_throughput()
            == reference_source.normalized_throughput()
        )


# ----------------------------------------------------------------------
# Estimator caches
# ----------------------------------------------------------------------
positive = st.floats(min_value=0.01, max_value=1e5, allow_nan=False)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), positive),
        st.tuples(st.just("seed"), st.lists(positive, min_size=1, max_size=20)),
        st.tuples(st.just("reset"), st.one_of(st.none(), positive)),
    ),
    max_size=30,
)


def _assert_cache_exact(estimator, open_interval):
    weights = estimator.weights
    history = list(estimator.history)
    length = estimator.history_length
    fixed = float(np.dot(weights, history))
    tail = float(np.dot(weights[1:], history[: length - 1]))
    assert estimator.current_estimate() == fixed
    assert estimator.provisional_estimate(open_interval) == max(
        weights[0] * open_interval + tail, fixed
    )
    assert estimator.activation_threshold() == (fixed - tail) / weights[0]


class TestEstimatorCache:
    @given(
        window=st.integers(min_value=1, max_value=12),
        tfrc=st.booleans(),
        ops=operations,
        open_interval=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_cached_sums_equal_a_fresh_dot(self, window, tfrc, ops, open_interval):
        weights = tfrc_weights(window) if tfrc else uniform_weights(window)
        estimator = MovingAverageEstimator(weights, initial_interval=3.0)
        _assert_cache_exact(estimator, open_interval)
        for name, argument in ops:
            if name == "record":
                returned = estimator.record_interval(argument)
                assert returned == estimator.current_estimate()
            elif name == "seed":
                estimator.seed_history(argument)
            else:
                estimator.reset(argument)
            _assert_cache_exact(estimator, open_interval)


# ----------------------------------------------------------------------
# Sender memo of f
# ----------------------------------------------------------------------
class TestSenderMemo:
    def test_tfrc_formula_rate_equals_direct_evaluation(self):
        simulator = Simulator(seed=7)
        link = BottleneckLink(
            simulator, DropTailQueue(10), capacity_bps=0.4e6, propagation_delay=0.01
        )
        formula = PftkStandardFormula(rtt=0.05)
        sender = TfrcSender(
            simulator, link, flow_id=0, formula=formula, access_delay=0.04
        )
        memoised = sender._formula_rate
        calls = []

        def checked():
            loss_rate = sender._loss_event_rate()
            direct = float(formula.rate(loss_rate)) * formula.rtt / sender.current_rtt
            open_interval = (
                sender.next_sequence - 1 - sender._sequence_at_last_loss_event
            )
            growing = (
                sender.estimator.provisional_estimate(float(max(open_interval, 0)))
                > sender.estimator.current_estimate()
            )
            value = memoised()
            calls.append((loss_rate, growing))
            assert value == direct
            return value

        sender._formula_rate = checked
        simulator.run(until=60.0)

        rates = [loss_rate for loss_rate, _ in calls]
        repeats = sum(a == b for a, b in zip(rates, rates[1:]))
        assert len(sender.stats.loss_event_intervals) > 5
        assert any(growing for _, growing in calls)
        assert 0 < repeats < len(rates) - 1

    def test_audio_current_rate_equals_direct_evaluation(self):
        simulator = Simulator(seed=21)
        formula = PftkSimplifiedFormula(rtt=1.0)
        source = AudioSource(
            simulator, loss_probability=0.1, formula=formula, packet_period=0.01
        )
        memoised = source._current_rate
        estimates = []

        def checked():
            estimate = source.estimator.current_estimate()
            if source._had_first_loss and source._packets_since_loss > 0:
                estimate = source.estimator.provisional_estimate(
                    float(source._packets_since_loss)
                )
            direct = float(formula.rate_of_interval(max(estimate, 1e-9)))
            value = memoised()
            estimates.append((estimate, estimate > source.estimator.current_estimate()))
            assert value == direct
            return value

        source._current_rate = checked
        simulator.run(until=60.0)

        values = [estimate for estimate, _ in estimates]
        repeats = sum(a == b for a, b in zip(values, values[1:]))
        assert len(source.stats.loss_event_intervals) > 20
        assert any(growing for _, growing in estimates)
        assert 0 < repeats < len(values) - 1

    @pytest.mark.parametrize("loss_rate", [float("nan"), 0.0])
    def test_invalid_loss_rate_is_never_memoised(self, loss_rate):
        simulator = Simulator(seed=1)
        link = BottleneckLink(
            simulator, DropTailQueue(10), capacity_bps=1e6, propagation_delay=0.01
        )
        sender = TfrcSender(simulator, link, flow_id=0,
                            formula=PftkStandardFormula(rtt=0.05), access_delay=0.04)
        sender._loss_event_rate = lambda: loss_rate
        for _ in range(2):
            with pytest.raises(ValueError):
                sender._formula_rate()
