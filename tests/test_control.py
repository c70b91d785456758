"""Unit tests for the basic and comprehensive controls (equations (3) and (4))."""

import numpy as np
import pytest

from repro.core.control import (
    BasicControl,
    ComprehensiveControl,
    ControlTrace,
    run_basic_control,
    run_comprehensive_control,
)
from repro.core.estimator import tfrc_weights, uniform_weights
from repro.core.formulas import PftkStandardFormula
from repro.lossprocess import ShiftedExponentialIntervals, make_rng


def _sample_intervals(p, cv, count, seed):
    process = ShiftedExponentialIntervals.from_loss_rate_and_cv(p, cv)
    return process.sample_intervals(count, make_rng(seed))


class TestControlTrace:
    def test_throughput_is_packets_over_time(self):
        trace = ControlTrace(
            intervals=[10.0, 20.0],
            estimates=[15.0, 15.0],
            rates=[5.0, 5.0],
            durations=[2.0, 4.0],
        )
        assert trace.throughput == pytest.approx(30.0 / 6.0)

    def test_loss_event_rate(self):
        trace = ControlTrace(
            intervals=[10.0, 30.0],
            estimates=[20.0, 20.0],
            rates=[1.0, 1.0],
            durations=[10.0, 30.0],
        )
        assert trace.loss_event_rate == pytest.approx(1.0 / 20.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ControlTrace(
                intervals=[1.0, 2.0],
                estimates=[1.0],
                rates=[1.0, 2.0],
                durations=[1.0, 2.0],
            )

    def test_covariances_on_short_traces_are_zero(self):
        trace = ControlTrace(
            intervals=[10.0], estimates=[10.0], rates=[1.0], durations=[10.0]
        )
        assert trace.rate_duration_covariance() == 0.0
        assert trace.interval_estimate_covariance() == 0.0


class TestBasicControl:
    def test_rate_is_formula_of_estimate(self, pftk_simplified):
        control = BasicControl(pftk_simplified, weights=uniform_weights(4))
        estimate = 50.0
        expected = pftk_simplified.rate_of_interval(estimate)
        assert control.rate_for_estimate(estimate) == pytest.approx(expected)

    def test_duration_is_interval_over_rate(self, sqrt_formula):
        control = BasicControl(sqrt_formula)
        rate = control.rate_for_estimate(25.0)
        assert control.interval_duration(10.0, 25.0) == pytest.approx(10.0 / rate)

    def test_constant_intervals_reach_formula_throughput(self, pftk_simplified):
        """With deterministic intervals the control converges to x = f(p)."""
        intervals = [40.0] * 60
        trace = run_basic_control(pftk_simplified, intervals, weights=tfrc_weights(8))
        assert trace.normalized_throughput(pftk_simplified) == pytest.approx(1.0, rel=1e-9)

    def test_run_rejects_bad_inputs(self, sqrt_formula):
        control = BasicControl(sqrt_formula)
        with pytest.raises(ValueError):
            control.run([])
        with pytest.raises(ValueError):
            control.run([1.0, -2.0, 3.0])
        with pytest.raises(ValueError):
            control.run([1.0, 2.0], warmup=5)

    def test_iid_intervals_conservative_with_pftk(self, pftk_simplified):
        """Theorem 1: i.i.d. intervals (C1 holds) + convex g => conservative."""
        intervals = _sample_intervals(0.1, 0.999, 30_000, seed=42)
        trace = run_basic_control(pftk_simplified, intervals)
        assert trace.normalized_throughput(pftk_simplified) < 1.0

    def test_iid_intervals_conservative_with_sqrt(self, sqrt_formula):
        intervals = _sample_intervals(0.1, 0.999, 30_000, seed=43)
        trace = run_basic_control(sqrt_formula, intervals)
        assert trace.normalized_throughput(sqrt_formula) < 1.02

    def test_more_conservative_with_heavier_loss_for_pftk(self, pftk_simplified):
        """Claim 1: PFTK gets more conservative as p grows (throughput drop)."""
        light = run_basic_control(
            pftk_simplified, _sample_intervals(0.02, 0.999, 30_000, seed=1)
        )
        heavy = run_basic_control(
            pftk_simplified, _sample_intervals(0.3, 0.999, 30_000, seed=2)
        )
        assert heavy.normalized_throughput(pftk_simplified) < light.normalized_throughput(
            pftk_simplified
        )


class TestComprehensiveControl:
    def test_matches_basic_when_estimator_would_not_grow(self, pftk_simplified):
        """With decreasing intervals the comprehensive control equals the basic one."""
        intervals = list(np.linspace(100.0, 10.0, 50))
        basic = run_basic_control(pftk_simplified, intervals, weights=uniform_weights(2))
        comp = run_comprehensive_control(
            pftk_simplified, intervals, weights=uniform_weights(2)
        )
        # Durations can only be shorter or equal; for strictly decreasing
        # intervals every interval leaves the estimator lower, so equal.
        assert comp.throughput >= basic.throughput - 1e-12

    def test_throughput_at_least_basic(self, pftk_simplified):
        """Proposition 2: comprehensive >= basic on the same interval sequence."""
        intervals = _sample_intervals(0.1, 0.999, 20_000, seed=7)
        basic = run_basic_control(pftk_simplified, intervals)
        comp = run_comprehensive_control(pftk_simplified, intervals)
        assert comp.throughput >= basic.throughput * (1.0 - 1e-9)

    def test_throughput_at_least_basic_sqrt(self, sqrt_formula):
        intervals = _sample_intervals(0.05, 0.999, 20_000, seed=8)
        basic = run_basic_control(sqrt_formula, intervals)
        comp = run_comprehensive_control(sqrt_formula, intervals)
        assert comp.throughput >= basic.throughput * (1.0 - 1e-9)

    def test_duration_never_negative(self, pftk_simplified):
        control = ComprehensiveControl(pftk_simplified, weights=tfrc_weights(4))
        control.estimator.seed_history([5.0, 5.0, 5.0, 5.0])
        duration = control.interval_duration(500.0, control.estimator.current_estimate())
        assert duration > 0.0

    def test_pftk_standard_yields_a_valid_trace(self):
        """PFTK-standard, whose g switches branch at c2^2, yields a valid trace."""
        formula = PftkStandardFormula(rtt=1.0)
        intervals = _sample_intervals(0.05, 0.999, 2_000, seed=9)
        trace = run_comprehensive_control(formula, intervals)
        assert trace.throughput > 0.0
        assert np.all(trace.durations > 0.0)
