"""Tests for phased loss processes (the Section III-B.2 regime).

A phased point is an :func:`repro.api.simulate` call over a ``two-phase``
loss process; its normalised covariance ``cov[theta_0, theta_hat_0] p^2``
is ``interval_estimate_covariance * empirical_loss_event_rate**2``.
"""

import pytest

from repro import api
from repro.core import PftkSimplifiedFormula, SqrtFormula


def phase_point(formula, switch_probability, num_events, seed,
                control="basic", good_mean=60.0, bad_mean=4.0):
    """The control under a two-phase process, with the TFRC window L = 8."""
    return api.simulate(api.SimConfig(
        formula=formula,
        loss_process={"kind": "two-phase", "good_mean": good_mean,
                      "bad_mean": bad_mean,
                      "switch_probability": switch_probability},
        history_length=8, control=control, num_events=num_events, seed=seed,
    ))


def normalized_covariance(result):
    return result.interval_estimate_covariance * result.empirical_loss_event_rate**2


class TestPhaseStudy:
    def test_fast_switching_behaves_like_iid(self):
        """Fast phase changes approximate i.i.d. intervals: the covariance is
        small and Theorem 1's conservative outcome shows up."""
        point = phase_point(PftkSimplifiedFormula(rtt=1.0), 0.5, 20_000, seed=1)
        assert abs(normalized_covariance(point)) < 0.3
        assert point.normalized_throughput < 1.05

    def test_slow_switching_makes_estimator_predictive(self):
        """Slow phases make the estimator a good predictor: the normalised
        covariance turns clearly positive (condition (C1) fails)."""
        fast = phase_point(PftkSimplifiedFormula(rtt=1.0), 0.5, 20_000, seed=2)
        slow = phase_point(PftkSimplifiedFormula(rtt=1.0), 0.01, 20_000, seed=2)
        assert normalized_covariance(slow) > normalized_covariance(fast)
        assert normalized_covariance(slow) > 0.05

    def test_slow_phases_reduce_conservativeness(self):
        """With a positive covariance the throughput moves up towards (or
        beyond) f(p) relative to the fast-switching case."""
        fast = phase_point(SqrtFormula(rtt=1.0), 0.5, 20_000, seed=3)
        slow = phase_point(SqrtFormula(rtt=1.0), 0.01, 20_000, seed=3)
        assert slow.normalized_throughput > fast.normalized_throughput

    def test_loss_event_rate_reflects_phase_means(self):
        point = phase_point(SqrtFormula(rtt=1.0), 0.1, 20_000, seed=4)
        expected = 1.0 / (0.5 * 60.0 + 0.5 * 4.0)
        assert point.loss_event_rate == pytest.approx(expected)
        assert point.empirical_loss_event_rate == pytest.approx(expected, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError, match="switch_probability"):
            phase_point(SqrtFormula(rtt=1.0), 0.0, 20_000, seed=5)
        with pytest.raises(ValueError, match="at least 10"):
            phase_point(SqrtFormula(rtt=1.0), 0.1, 9, seed=5)


class TestSwitchingSweep:
    """Points along the switch probability, each with its own seed."""

    def test_covariance_grows_as_switching_slows(self):
        fast = phase_point(PftkSimplifiedFormula(rtt=1.0), 0.5, 20_000, seed=6)
        slow = phase_point(PftkSimplifiedFormula(rtt=1.0), 0.02, 20_000, seed=7)
        assert normalized_covariance(slow) > normalized_covariance(fast)

    def test_comprehensive_control_not_below_basic(self):
        basic = phase_point(PftkSimplifiedFormula(rtt=1.0), 0.05, 15_000, seed=7)
        comprehensive = phase_point(
            PftkSimplifiedFormula(rtt=1.0), 0.05, 15_000, seed=7,
            control="comprehensive",
        )
        assert comprehensive.normalized_throughput >= basic.normalized_throughput - 1e-9
