"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.control import run_basic_control, run_comprehensive_control
from repro.core.convexity import deviation_from_convexity, is_convex_on_grid
from repro.core.estimator import MovingAverageEstimator, tfrc_weights, uniform_weights
from repro.core.formulas import (
    PftkSimplifiedFormula,
    PftkStandardFormula,
    SqrtFormula,
)
from repro.montecarlo.vectorized_analytic import basic_throughput_rows
from repro.palm import (
    event_average,
    length_biased_average,
    palm_inversion_throughput,
    split_into_bins,
)

# Strategies -----------------------------------------------------------------

loss_rates = st.floats(min_value=1e-4, max_value=0.9, allow_nan=False)
intervals = st.floats(min_value=0.5, max_value=10_000.0, allow_nan=False)
rtts = st.floats(min_value=0.001, max_value=2.0, allow_nan=False)
interval_lists = st.lists(intervals, min_size=12, max_size=200)
window_lengths = st.integers(min_value=1, max_value=16)


FORMULA_FACTORIES = [
    lambda rtt: SqrtFormula(rtt=rtt),
    lambda rtt: PftkStandardFormula(rtt=rtt),
    lambda rtt: PftkSimplifiedFormula(rtt=rtt),
]


class TestFormulaProperties:
    @given(p=loss_rates, rtt=rtts)
    @settings(max_examples=60, deadline=None)
    def test_rates_positive_and_finite(self, p, rtt):
        for factory in FORMULA_FACTORIES:
            rate = factory(rtt).rate(p)
            assert np.isfinite(rate)
            assert rate > 0.0

    @given(p1=loss_rates, p2=loss_rates, rtt=rtts)
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_in_p(self, p1, p2, rtt):
        low, high = min(p1, p2), max(p1, p2)
        if low == high:
            return
        for factory in FORMULA_FACTORIES:
            formula = factory(rtt)
            assert formula.rate(low) >= formula.rate(high)

    @given(p=loss_rates, rtt=rtts)
    @settings(max_examples=60, deadline=None)
    def test_pftk_not_above_sqrt(self, p, rtt):
        sqrt_rate = SqrtFormula(rtt=rtt).rate(p)
        assert PftkStandardFormula(rtt=rtt).rate(p) <= sqrt_rate + 1e-9
        assert PftkSimplifiedFormula(rtt=rtt).rate(p) <= sqrt_rate + 1e-9

    @given(x=st.floats(min_value=1.0, max_value=1e5), rtt=rtts)
    @settings(max_examples=60, deadline=None)
    def test_g_is_reciprocal(self, x, rtt):
        for factory in FORMULA_FACTORIES:
            formula = factory(rtt)
            assert formula.g(x) * formula.rate_of_interval(x) == pytest.approx(1.0)


class TestEstimatorProperties:
    @given(history=interval_lists, window=window_lengths)
    @settings(max_examples=60, deadline=None)
    def test_estimate_within_history_range(self, history, window):
        """A convex combination of the history stays inside its range."""
        estimator = MovingAverageEstimator(tfrc_weights(window))
        estimator.seed_history(history[:window][::-1] or [history[0]])
        estimate = estimator.current_estimate()
        seeded = history[:window] or [history[0]]
        assert min(seeded) - 1e-9 <= estimate <= max(seeded) + 1e-9

    @given(history=interval_lists, window=window_lengths,
           open_interval=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_provisional_estimate_never_decreases(self, history, window, open_interval):
        estimator = MovingAverageEstimator(uniform_weights(window))
        estimator.seed_history(history[:window][::-1] or [history[0]])
        assert (
            estimator.provisional_estimate(open_interval)
            >= estimator.current_estimate() - 1e-12
        )

    @given(window=window_lengths)
    @settings(max_examples=20, deadline=None)
    def test_weights_sum_to_one(self, window):
        assert tfrc_weights(window).sum() == pytest.approx(1.0)
        assert uniform_weights(window).sum() == pytest.approx(1.0)


class TestControlProperties:
    @given(data=interval_lists, window=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_comprehensive_at_least_basic(self, data, window):
        """Proposition 2 as a property: for any interval sequence the
        comprehensive control's throughput is at least the basic control's."""
        formula = PftkSimplifiedFormula(rtt=0.1)
        weights = uniform_weights(window)
        basic = run_basic_control(formula, data, weights=weights, warmup=window)
        comprehensive = run_comprehensive_control(
            formula, data, weights=weights, warmup=window
        )
        assert comprehensive.throughput >= basic.throughput * (1.0 - 1e-9)

    @given(data=interval_lists)
    @settings(max_examples=30, deadline=None)
    def test_proposition1_equals_trace_throughput(self, data):
        formula = SqrtFormula(rtt=0.1)
        trace = run_basic_control(formula, data, weights=uniform_weights(2), warmup=2)
        analytic = basic_throughput_rows(formula, trace.intervals, trace.estimates)
        assert analytic == pytest.approx(trace.throughput, rel=1e-9)

    @given(value=intervals, count=st.integers(min_value=12, max_value=60))
    @settings(max_examples=30, deadline=None)
    def test_constant_intervals_hit_formula_exactly(self, value, count):
        formula = PftkSimplifiedFormula(rtt=0.1)
        trace = run_basic_control(formula, [value] * count, weights=tfrc_weights(4))
        assert trace.normalized_throughput(formula) == pytest.approx(1.0, rel=1e-9)


class TestConvexityProperties:
    @given(
        a=st.floats(min_value=0.1, max_value=5.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
        c=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_quadratics_have_unit_deviation_ratio(self, a, b, c):
        """Any convex quadratic (positive leading coefficient, positive on
        the interval) equals its convex closure."""
        function = lambda x: a * x**2 + b * x + c + 100.0
        ratio = deviation_from_convexity(function, 0.5, 5.0, num_points=512)
        assert ratio == pytest.approx(1.0, abs=1e-6)

    @given(values=st.lists(st.floats(min_value=-100, max_value=100), min_size=3,
                           max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_sorted_cumulative_sums_are_convex(self, values):
        """The cumulative sum of a sorted sequence is a convex sequence."""
        increments = np.sort(np.asarray(values))
        cumulative = np.concatenate([[0.0], np.cumsum(increments)])
        assert is_convex_on_grid(cumulative, tolerance=1e-7)


class TestPalmProperties:
    @given(
        durations=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2,
                           max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_length_biased_average_bounded_by_extremes(self, durations):
        values = list(range(len(durations)))
        biased = length_biased_average(durations, values)
        assert min(values) - 1e-9 <= biased <= max(values) + 1e-9

    @given(
        packets=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=2,
                         max_size=100),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_throughput_scale_equivariance(self, packets, scale):
        """Scaling all durations by k divides the throughput by k."""
        durations = [1.0] * len(packets)
        base = palm_inversion_throughput(durations, packets)
        scaled = palm_inversion_throughput([scale] * len(packets), packets)
        assert scaled == pytest.approx(base / scale, rel=1e-9)

    @given(
        values=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=5,
                        max_size=200),
        num_bins=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_bins_partition_values(self, values, num_bins):
        bins = split_into_bins(values, num_bins)
        total = sum(len(b) for b in bins)
        assert total == len(values)
        reconstructed = np.concatenate(bins)
        assert np.allclose(reconstructed, np.asarray(values))

    @given(
        pairs=st.lists(
            st.tuples(st.floats(min_value=0.01, max_value=10.0),
                      st.floats(min_value=0.0, max_value=100.0)),
            min_size=2, max_size=100,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_event_average_unweighted(self, pairs):
        durations = [p[0] for p in pairs]
        values = [p[1] for p in pairs]
        assert event_average(values) == pytest.approx(float(np.mean(values)))
        # The event and length-biased averages agree when all durations match.
        equal = [1.0] * len(values)
        assert length_biased_average(equal, values) == pytest.approx(
            event_average(values)
        )
