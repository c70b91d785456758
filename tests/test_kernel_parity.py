"""Parity of the one control kernel with the per-event loop oracle.

``api.simulate(method="montecarlo")`` evaluates a point as a one-row
call into :mod:`repro.montecarlo.vectorized`.  The per-event loops
:class:`~repro.core.control.BasicControl` and
:class:`~repro.core.control.ComprehensiveControl` are the reference
semantics.  Every case replays the facade's draw (same seed, one
``sample_intervals(num_events + L)`` call) through the loop and requires
all five reported statistics to agree at rtol 1e-9: in the regime where
the paper's effect is large (cv = 0.999, p = 0.3), for both
Proposition-3 closed forms and the ODE fallback (pftk-standard), for
parametric and custom weight profiles, and under a correlated process.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.core import formulas
from repro.core.control import BasicControl, ComprehensiveControl
from repro.core.formulas import SqrtFormula
from repro.lossprocess import ShiftedExponentialIntervals, make_rng

NUM_EVENTS = 1_000
LARGE_EFFECT = {"loss_event_rate": 0.3, "coefficient_of_variation": 0.999}
CONTROLS = ["basic", "comprehensive"]

VARIANTS = {
    "uniform": dict(profile={"kind": "uniform", "history_length": 4},
                    **LARGE_EFFECT),
    "custom": dict(profile={"kind": "custom", "raw_weights": [4.0, 2.0, 1.0]},
                   **LARGE_EFFECT),
    "gilbert": dict(
        loss_process={"kind": "gilbert", "good_to_bad": 0.05,
                      "bad_to_good": 0.4, "good_loss_probability": 0.0,
                      "bad_loss_probability": 0.5},
        history_length=8,
    ),
}


def oracle_statistics(config):
    """The five SimResult statistics from the loop over the facade's draw."""
    formula = config.resolve_formula()
    weights = config.resolve_profile().weights()
    intervals = config.resolve_loss_process().sample_intervals(
        config.num_events + weights.size, make_rng(config.seed)
    )
    control = (
        ComprehensiveControl if config.control == "comprehensive" else BasicControl
    )
    trace = control(formula, weights=weights).run(intervals)
    return {
        "throughput": trace.throughput,
        "normalized_throughput": trace.normalized_throughput(formula),
        "empirical_loss_event_rate": trace.loss_event_rate,
        "interval_estimate_covariance": trace.interval_estimate_covariance(),
        "estimator_cv": float(np.std(trace.estimates) / np.mean(trace.estimates)),
    }


def assert_parity(config):
    result = api.simulate(config)
    for name, expected in oracle_statistics(config).items():
        actual = getattr(result, name)
        assert np.isclose(actual, expected, rtol=1e-9, atol=0.0), (
            name, actual, expected)


@pytest.mark.parametrize("history_length", [1, 2, 8])
@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("formula", ["sqrt", "pftk-simplified", "pftk-standard"])
def test_formula_control_window_matrix(formula, control, history_length):
    assert_parity(api.SimConfig(
        formula=formula, history_length=history_length, control=control,
        num_events=NUM_EVENTS, seed=11, **LARGE_EFFECT,
    ))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("formula", ["pftk-simplified", "pftk-standard"])
def test_profile_and_process_variants(formula, control, variant):
    assert_parity(api.SimConfig(
        formula=formula, control=control, num_events=NUM_EVENTS, seed=12,
        **VARIANTS[variant],
    ))


class TestOdeFallback:
    def test_chunked_integration_matches_loop_oracle(self, monkeypatch):
        # Many chunks, the last one ragged, through the generic growth_time.
        monkeypatch.setattr(formulas, "_ODE_CHUNK", 37)
        assert_parity(api.SimConfig(
            formula="pftk-standard", control="comprehensive",
            history_length=8, num_events=NUM_EVENTS, seed=21, **LARGE_EFFECT,
        ))

    def test_default_point_memory_is_bounded(self):
        config = api.SimConfig(
            formula="pftk-standard", control="comprehensive", seed=3,
            **LARGE_EFFECT,
        )
        assert config.num_events == 40_000
        api.simulate(dataclasses.replace(config, num_events=100))
        tracemalloc.start()
        try:
            result = api.simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert 0.0 < result.normalized_throughput < 1.0


class UnboundedSqrt(SqrtFormula):
    """A formula whose rate is infinite: every interval takes no time."""

    def rate(self, p):
        return np.inf * np.ones_like(np.asarray(p, dtype=float))


class TestErrorsUnchanged:
    process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.9)

    def simulate(self, control, formula=None, **fields):
        return api.simulate(api.SimConfig(
            formula=SqrtFormula() if formula is None else formula,
            loss_process=self.process, control=control, seed=1, **fields,
        ))

    @pytest.mark.parametrize("control", CONTROLS)
    def test_too_few_events(self, control):
        with pytest.raises(ValueError, match="at least 10"):
            self.simulate(control, num_events=9)
        with pytest.raises(ValueError, match="at least 10"):
            api.simulate({"formula": "sqrt", "loss_event_rate": 0.1,
                          "num_events": 9, "seed": 1})

    def test_weights_and_history_length_are_exclusive(self):
        # SimConfig checks the pair before the control matters.
        with pytest.raises(ValueError, match="either profile or history_length"):
            self.simulate("basic", num_events=50, history_length=2,
                          profile={"kind": "custom", "raw_weights": [1.0, 1.0]})

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [2.0, -1.0, 1.0]])
    @pytest.mark.parametrize("control", CONTROLS)
    def test_non_positive_weights(self, control, weights):
        with pytest.raises(ValueError, match="strictly positive"):
            self.simulate(control, num_events=50,
                          profile={"kind": "custom", "raw_weights": weights})
        with pytest.raises(ValueError, match="strictly positive"):
            BasicControl(SqrtFormula(), weights=weights)

    def test_zero_total_duration(self):
        # Basic control only: the comprehensive control's duration floor
        # keeps every growing interval, and so the total, positive.
        intervals = self.process.sample_intervals(58, make_rng(1))
        with pytest.raises(ValueError, match="zero total duration"):
            _ = BasicControl(UnboundedSqrt()).run(intervals).throughput
        with pytest.raises(ValueError, match="zero total duration"):
            self.simulate("basic", formula=UnboundedSqrt(), num_events=50)
