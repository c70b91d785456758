"""Unit tests for the correlated, Bernoulli and trace-driven loss models."""

import numpy as np
import pytest

from repro.lossprocess import (
    BernoulliDropper,
    GeometricIntervals,
    GilbertPacketLoss,
    MarkovModulatedIntervals,
    TraceIntervals,
    load_intervals,
    make_rng,
    two_phase_process,
)
from repro.experiments import ExperimentRunner, canonical_json, preset
from repro.palm import autocorrelation


def _choice_loop_sample(process, count, rng):
    """The Markov sampler as it was: one ``rng.choice(n, p=row)`` per event."""
    phases = np.empty(count, dtype=int)
    intervals = np.empty(count, dtype=float)
    matrix = process.transition_matrix
    phase = int(rng.choice(process.num_phases, p=process.stationary_distribution))
    for index in range(count):
        phases[index] = phase
        intervals[index] = process._draw_interval(phase, rng)
        phase = int(rng.choice(process.num_phases, p=matrix[phase]))
    return intervals, phases


class TestMarkovModulated:
    def test_stationary_distribution_symmetric_chain(self):
        process = two_phase_process(good_mean=50.0, bad_mean=5.0, switch_probability=0.1)
        assert np.allclose(process.stationary_distribution, [0.5, 0.5])
        assert process.mean_interval == pytest.approx(27.5)

    def test_slow_phases_produce_positive_autocorrelation(self):
        """Slowly switching phases make consecutive intervals predictable,
        the regime where Theorem 1's covariance condition (C1) fails."""
        slow = two_phase_process(50.0, 5.0, switch_probability=0.02)
        intervals = slow.sample_intervals(20_000, make_rng(11))
        assert autocorrelation(intervals, 1) > 0.2

    def test_fast_phases_have_weak_autocorrelation(self):
        fast = two_phase_process(50.0, 5.0, switch_probability=0.5)
        intervals = fast.sample_intervals(20_000, make_rng(12))
        assert abs(autocorrelation(intervals, 1)) < 0.1

    def test_sample_with_phases(self):
        process = two_phase_process(40.0, 4.0, switch_probability=0.1)
        intervals, phases = process.sample_intervals_with_phases(5_000, make_rng(13))
        assert intervals.shape == phases.shape
        assert set(np.unique(phases)).issubset({0, 1})
        # Bad-phase intervals should be shorter on average.
        assert intervals[phases == 1].mean() < intervals[phases == 0].mean()

    @pytest.mark.parametrize("process", [
        two_phase_process(40.0, 8.0, switch_probability=0.5, phase_cv=0.7),
        two_phase_process(40.0, 8.0, switch_probability=0.01),
        MarkovModulatedIntervals(
            [[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [1 / 3, 1 / 3, 1 / 3]],
            [5.0, 50.0, 20.0],
        ),
    ], ids=["switch-0.5", "switch-0.01", "three-phase"])
    def test_sampler_draws_what_the_choice_loop_drew(self, process):
        expected = _choice_loop_sample(process, 20_000, make_rng(21))
        actual = process.sample_intervals_with_phases(20_000, make_rng(21))
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])

    def test_fig3_markov_points_match_the_choice_loop(self, monkeypatch):
        def results():
            campaign = ExperimentRunner().run(preset("fig3-markov"))
            return [canonical_json(result.value) for result in campaign.results]

        actual = results()
        monkeypatch.setattr(
            MarkovModulatedIntervals, "sample_intervals_with_phases",
            _choice_loop_sample,
        )
        assert actual == results()

    def test_validation(self):
        with pytest.raises(ValueError):
            MarkovModulatedIntervals([[0.5, 0.4]], [10.0])
        with pytest.raises(ValueError):
            MarkovModulatedIntervals([[0.5, 0.5], [0.5, 0.5]], [10.0])
        with pytest.raises(ValueError):
            MarkovModulatedIntervals([[0.5, 0.5], [0.5, 0.5]], [10.0, -1.0])
        with pytest.raises(ValueError):
            two_phase_process(10.0, 5.0, switch_probability=0.0)


class TestGilbert:
    def test_stationary_probabilities(self):
        model = GilbertPacketLoss(good_to_bad=0.01, bad_to_good=0.09)
        assert model.stationary_bad_probability == pytest.approx(0.1)

    def test_average_loss_probability(self):
        model = GilbertPacketLoss(
            good_to_bad=0.05, bad_to_good=0.05, good_loss_probability=0.0,
            bad_loss_probability=0.2,
        )
        assert model.average_loss_probability == pytest.approx(0.1)

    def test_loss_indicator_rate(self):
        model = GilbertPacketLoss(good_to_bad=0.02, bad_to_good=0.08,
                                  bad_loss_probability=0.3)
        losses = model.sample_loss_indicators(200_000, make_rng(14))
        assert losses.mean() == pytest.approx(model.average_loss_probability, rel=0.1)

    def test_loss_event_intervals_mean(self):
        model = GilbertPacketLoss(good_to_bad=0.05, bad_to_good=0.05,
                                  bad_loss_probability=0.4)
        intervals = model.sample_loss_event_intervals(5_000, make_rng(15))
        expected_mean = 1.0 / model.average_loss_probability
        assert intervals.mean() == pytest.approx(expected_mean, rel=0.15)

    def test_budget_exhaustion(self):
        model = GilbertPacketLoss(good_to_bad=0.5, bad_to_good=0.5,
                                  bad_loss_probability=0.001)
        with pytest.raises(RuntimeError):
            model.sample_loss_event_intervals(1_000, make_rng(16), max_packets=100)

    def test_validation(self):
        with pytest.raises(ValueError):
            GilbertPacketLoss(good_to_bad=0.0, bad_to_good=0.5)
        with pytest.raises(ValueError):
            GilbertPacketLoss(good_to_bad=0.5, bad_to_good=0.5,
                              good_loss_probability=0.0, bad_loss_probability=0.0)


class TestBernoulliAndGeometric:
    def test_dropper_rate(self):
        dropper = BernoulliDropper(0.2)
        losses = dropper.sample_loss_indicators(100_000, make_rng(17))
        assert losses.mean() == pytest.approx(0.2, rel=0.05)

    def test_geometric_moments(self):
        process = GeometricIntervals(0.1)
        assert process.mean_interval == pytest.approx(10.0)
        assert process.coefficient_of_variation() == pytest.approx(np.sqrt(0.9))
        sample = process.sample_intervals(100_000, make_rng(18))
        assert sample.mean() == pytest.approx(10.0, rel=0.03)

    def test_geometric_durations_independent_of_rate(self):
        """The Claim 2 property: durations depend only on the packet clock."""
        process = GeometricIntervals(0.05)
        durations_slow = process.sample_durations(
            10_000, make_rng(19), send_rate=1.0, packet_period=0.02
        )
        durations_fast = process.sample_durations(
            10_000, make_rng(19), send_rate=100.0, packet_period=0.02
        )
        assert np.allclose(durations_slow, durations_fast)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliDropper(0.0)
        with pytest.raises(ValueError):
            GeometricIntervals(1.0)


class TestTrace:
    def test_replays_in_order(self):
        values = [2.0, 4.0, 6.0, 8.0]
        trace = TraceIntervals(values)
        rng = make_rng(20)
        sample = trace.sample_intervals(8, rng)
        # Wrap-around preserves cyclic order.
        start = list(values).index(sample[0])
        expected = [values[(start + i) % 4] for i in range(8)]
        assert np.allclose(sample, expected)

    def test_autocovariance(self):
        trace = TraceIntervals([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
        assert trace.autocovariance(0) > 0.0
        assert trace.autocovariance(1) < 0.0
        assert trace.autocovariance(100) == 0.0

    def test_load_intervals_roundtrip(self, tmp_path):
        path = tmp_path / "intervals.txt"
        path.write_text("# comment line\n10 20 30\n40\n\n50\n")
        trace = load_intervals(str(path))
        assert len(trace) == 5
        assert trace.mean_interval == pytest.approx(30.0)

    def test_load_intervals_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_intervals(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceIntervals([])
        with pytest.raises(ValueError):
            TraceIntervals([1.0, 0.0])
