"""Unit tests for the analytic throughput expressions (Propositions 1-3).

Propositions 1 and 3 are evaluated on 1-D samples by the row kernels of
:mod:`repro.montecarlo.vectorized_analytic` (a 1-D sample is one row);
Proposition 3's correction is
:func:`repro.montecarlo.vectorized.growth_corrections`, which the
Monte-Carlo control kernel subtracts too.
"""

import numpy as np
import pytest

from repro import api
from repro.core.control import (
    ComprehensiveControl,
    run_basic_control,
    run_comprehensive_control,
)
from repro.core.estimator import tfrc_weights
from repro.core.throughput import decompose_throughput
from repro.lossprocess import ShiftedExponentialIntervals, make_rng
from repro.montecarlo.vectorized import growth_corrections
from repro.montecarlo.vectorized_analytic import (
    basic_throughput_rows,
    comprehensive_throughput_rows,
)


def _trace(formula, p=0.1, cv=0.999, count=20_000, seed=3, comprehensive=False):
    process = ShiftedExponentialIntervals.from_loss_rate_and_cv(p, cv)
    intervals = process.sample_intervals(count, make_rng(seed))
    runner = run_comprehensive_control if comprehensive else run_basic_control
    return runner(formula, intervals, weights=tfrc_weights(8))


class TestProposition1:
    def test_matches_simulated_basic_control(self, pftk_simplified):
        """Proposition 1 evaluated on the trace's own samples equals the
        trace throughput exactly (it is the same expectation)."""
        trace = _trace(pftk_simplified)
        analytic = basic_throughput_rows(
            pftk_simplified, trace.intervals, trace.estimates
        )
        assert analytic == pytest.approx(trace.throughput, rel=1e-12)

    def test_equals_formula_for_deterministic_samples(self, sqrt_formula):
        intervals = np.full(100, 30.0)
        estimates = np.full(100, 30.0)
        result = basic_throughput_rows(sqrt_formula, intervals, estimates)
        assert result == pytest.approx(sqrt_formula.rate(1.0 / 30.0))


class TestProposition2:
    def test_lower_bounds_comprehensive_throughput(self, pftk_simplified):
        trace = _trace(pftk_simplified, comprehensive=True, seed=11)
        bound = basic_throughput_rows(
            pftk_simplified, trace.intervals, trace.estimates
        )
        assert trace.throughput >= bound * (1.0 - 1e-9)


def _corrections(formula, now, nxt, w1):
    now, nxt = np.asarray(now, dtype=float), np.asarray(nxt, dtype=float)
    return growth_corrections(formula, now, nxt, formula.rate_of_interval(now), w1)


class TestProposition3:
    def test_correction_zero_when_estimate_does_not_grow(self, pftk_simplified):
        corrections = _corrections(pftk_simplified, [20.0, 30.0], [20.0, 25.0], 0.25)
        assert np.allclose(corrections, 0.0)

    def test_correction_positive_when_estimate_grows(self, pftk_simplified):
        """V_n > 0 when theta_hat grows: the comprehensive control finishes
        the interval sooner than the basic control would."""
        corrections = _corrections(pftk_simplified, [20.0], [60.0], 0.25)
        assert corrections[0] > 0.0

    def test_correction_positive_for_sqrt(self, sqrt_formula):
        corrections = _corrections(sqrt_formula, [10.0], [50.0], 0.3)
        assert corrections[0] > 0.0

    @pytest.mark.parametrize("kind", sorted(api.FORMULAS.kinds()))
    def test_correction_matches_the_loop_oracle(self, kind):
        """Every formula has a correction: the loop oracle's V_n (ODE
        (16) integrated by its own quadrature, against the formula's
        closed-form growth_time), and zero where the estimate does not
        grow."""
        formula = api.FORMULAS.examples()[kind]
        control = ComprehensiveControl(formula, weights=tfrc_weights(8))
        w1 = float(control.estimator.weights[0])
        now = np.array([0.7, 2.0, 20.0, 20.0, 300.0])
        nxt = np.array([1.9, 3.0, 60.0, 19.0, 301.0])
        expected = [
            control._duration_correction(a, b) if b > a else 0.0
            for a, b in zip(now, nxt)
        ]
        corrections = _corrections(formula, now, nxt, w1)
        assert np.allclose(corrections, expected, rtol=1e-9, atol=0.0)
        assert np.all(corrections[nxt > now] > 0.0)

    def test_throughput_at_least_proposition1(self, pftk_simplified):
        """Proposition 3's throughput >= Proposition 1's (the correction only
        removes time from the denominator)."""
        trace = _trace(pftk_simplified, comprehensive=True, seed=12)
        estimates_next = np.roll(trace.estimates, -1)[:-1]
        intervals = trace.intervals[:-1]
        estimates_now = trace.estimates[:-1]
        weights = tfrc_weights(8)
        prop3 = comprehensive_throughput_rows(
            pftk_simplified, intervals, estimates_now, estimates_next, weights[0]
        )
        prop1 = basic_throughput_rows(pftk_simplified, intervals, estimates_now)
        assert prop3 >= prop1 * (1.0 - 1e-9)

    def test_matches_simulated_comprehensive_control(self, sqrt_formula):
        """For SQRT the closed-form Proposition 3 evaluated on the control's
        own (theta, theta_hat_n, theta_hat_{n+1}) samples reproduces the
        simulated comprehensive-control throughput."""
        trace = _trace(sqrt_formula, comprehensive=True, seed=13, count=20_000)
        estimates_next = np.roll(trace.estimates, -1)[:-1]
        intervals = trace.intervals[:-1]
        estimates_now = trace.estimates[:-1]
        weights = tfrc_weights(8)
        prop3 = comprehensive_throughput_rows(
            sqrt_formula, intervals, estimates_now, estimates_next, weights[0]
        )
        assert prop3 == pytest.approx(trace.throughput, rel=0.02)


class TestDecomposition:
    def test_components_reconstruct_throughput(self, pftk_simplified):
        trace = _trace(pftk_simplified, seed=21)
        decomposition = decompose_throughput(
            pftk_simplified, trace.intervals, trace.estimates
        )
        reconstructed = decomposition.jensen_factor / (
            1.0 + decomposition.covariance_correction
        )
        assert reconstructed == pytest.approx(decomposition.throughput, rel=1e-9)

    def test_independent_samples_have_small_covariance_correction(self, sqrt_formula):
        """When theta_0 and theta_hat_0 are independent the covariance term
        vanishes (Proposition 1's comment)."""
        rng = make_rng(5)
        intervals = rng.exponential(20.0, size=50_000)
        estimates = rng.exponential(20.0, size=50_000)
        decomposition = decompose_throughput(sqrt_formula, intervals, estimates)
        assert abs(decomposition.covariance_correction) < 0.02

    def test_normalized_throughput_below_one_for_iid_pftk(self, pftk_simplified):
        trace = _trace(pftk_simplified, p=0.2, seed=22)
        decomposition = decompose_throughput(
            pftk_simplified, trace.intervals, trace.estimates
        )
        assert decomposition.normalized_throughput < 1.0
