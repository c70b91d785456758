"""Unit tests for the Palm-calculus estimators and statistics helpers."""

import numpy as np
import pytest

from repro.core.estimator import EstimatorTrace
from repro.palm import (
    autocorrelation,
    autocovariance,
    binned_estimates,
    coefficient_of_variation,
    correlation,
    covariance,
    event_average,
    feller_gap,
    intensity,
    length_biased_average,
    mean_confidence_interval,
    palm_inversion_throughput,
    split_into_bins,
    time_average_piecewise_constant,
)


class TestEventVersusTimeAverages:
    def test_event_average(self):
        assert event_average([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_time_average_weights_by_duration(self):
        durations = [1.0, 9.0]
        values = [10.0, 0.0]
        assert time_average_piecewise_constant(durations, values) == pytest.approx(1.0)

    def test_palm_inversion_throughput(self):
        durations = [2.0, 2.0]
        packets = [10.0, 30.0]
        assert palm_inversion_throughput(durations, packets) == pytest.approx(10.0)

    def test_intensity(self):
        assert intensity([0.5, 0.5, 1.0]) == pytest.approx(1.5)

    def test_feller_paradox_direction(self, rng):
        """When the sampled value is negatively correlated with the interval
        length, the event average exceeds the time (length-biased) average --
        the 'bus stop' argument behind Theorem 2."""
        rates = rng.uniform(1.0, 10.0, size=10_000)
        durations = 100.0 / rates
        gap = feller_gap(durations, rates)
        assert gap > 0.0
        assert event_average(rates) > length_biased_average(durations, rates)

    def test_feller_gap_zero_for_independent(self, rng):
        values = rng.normal(5.0, 1.0, size=50_000)
        durations = rng.uniform(0.5, 1.5, size=50_000)
        assert abs(feller_gap(durations, values)) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            event_average([])
        with pytest.raises(ValueError):
            time_average_piecewise_constant([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            intensity([1.0, -1.0])


class TestStatistics:
    def test_covariance_and_correlation(self, rng):
        x = rng.normal(size=20_000)
        y = 2.0 * x + rng.normal(scale=0.1, size=20_000)
        assert covariance(x, y) == pytest.approx(2.0, rel=0.05)
        assert correlation(x, y) == pytest.approx(1.0, abs=0.01)

    def test_correlation_of_constant_is_zero(self):
        assert correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_autocovariance_of_alternating_sequence(self):
        values = [1.0, -1.0] * 100
        assert autocovariance(values, 0) == pytest.approx(1.0)
        assert autocovariance(values, 1) == pytest.approx(-1.0, rel=0.02)
        assert autocorrelation(values, 1) == pytest.approx(-1.0, rel=0.02)

    def test_autocovariance_lag_beyond_length(self):
        assert autocovariance([1.0, 2.0], 5) == 0.0

    def test_autocorrelation_of_constant(self):
        assert autocorrelation([3.0, 3.0, 3.0], 1) == 0.0

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([10.0, 10.0]) == 0.0
        values = [5.0, 15.0]
        assert coefficient_of_variation(values) == pytest.approx(0.5)

    def test_cv_undefined_for_zero_mean(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1.0, 1.0])

    def test_normalized_covariance_scale_invariance(self, rng):
        """cov * p^2 is invariant to rescaling the intervals, which is why
        the paper plots it across experiments with very different p."""
        intervals = rng.exponential(10.0, size=20_000)
        estimates = intervals + rng.normal(scale=1.0, size=20_000)
        value_small = EstimatorTrace(intervals, estimates).normalized_covariance()
        value_large = EstimatorTrace(
            10.0 * intervals, 10.0 * estimates
        ).normalized_covariance()
        assert value_small == pytest.approx(value_large, rel=1e-9)


class TestBinning:
    def test_split_into_bins_partitions(self):
        bins = split_into_bins(list(range(10)), 3)
        assert len(bins) == 3
        assert sum(len(b) for b in bins) == 10

    def test_split_validation(self):
        with pytest.raises(ValueError):
            split_into_bins([1.0], 0)
        with pytest.raises(ValueError):
            split_into_bins([1.0], 2)

    def test_binned_estimates(self):
        values = [1.0] * 30 + [3.0] * 30
        estimate = binned_estimates(values, 6)
        assert estimate.num_bins == 6
        assert estimate.mean == pytest.approx(2.0)
        assert estimate.standard_error > 0.0

    def test_single_bin_has_zero_error(self):
        estimate = binned_estimates([1.0, 2.0, 3.0], 1)
        assert estimate.standard_error == 0.0

    def test_confidence_interval_contains_mean(self, rng):
        values = rng.normal(10.0, 2.0, size=1_000)
        mean, lower, upper = mean_confidence_interval(values)
        assert lower < mean < upper
        assert lower < 10.0 < upper

    def test_confidence_interval_single_value(self):
        mean, lower, upper = mean_confidence_interval([5.0])
        assert mean == lower == upper == 5.0
