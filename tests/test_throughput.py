"""Unit tests for the analytic throughput expressions (Propositions 1-3).

Propositions 1 and 3 are evaluated on 1-D samples by the row kernels of
:mod:`repro.montecarlo.vectorized_analytic` (a 1-D sample is one row).
"""

import numpy as np
import pytest

from repro.core.control import run_basic_control, run_comprehensive_control
from repro.core.estimator import tfrc_weights
from repro.core.formulas import PftkSimplifiedFormula, PftkStandardFormula, SqrtFormula
from repro.core.throughput import decompose_throughput, proposition3_correction
from repro.lossprocess import ShiftedExponentialIntervals, make_rng
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


class TestProposition3:
    def test_correction_zero_when_estimate_does_not_grow(self, pftk_simplified):
        corrections = proposition3_correction(
            pftk_simplified,
            estimates_now=[20.0, 30.0],
            estimates_next=[20.0, 25.0],
            first_weight=0.25,
        )
        assert np.allclose(corrections, 0.0)

    def test_correction_positive_when_estimate_grows(self, pftk_simplified):
        """V_n > 0 when theta_hat grows: the comprehensive control finishes
        the interval sooner than the basic control would."""
        corrections = proposition3_correction(
            pftk_simplified,
            estimates_now=[20.0],
            estimates_next=[60.0],
            first_weight=0.25,
        )
        assert corrections[0] > 0.0

    def test_correction_positive_for_sqrt(self, sqrt_formula):
        corrections = proposition3_correction(
            sqrt_formula,
            estimates_now=[10.0],
            estimates_next=[50.0],
            first_weight=0.3,
        )
        assert corrections[0] > 0.0

    def test_rejects_pftk_standard(self, pftk_standard):
        with pytest.raises(TypeError):
            proposition3_correction(pftk_standard, [1.0], [2.0], 0.25)

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
