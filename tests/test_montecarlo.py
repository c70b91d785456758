"""Unit tests for the Monte-Carlo numerical experiments (Figures 3 and 4).

Every point runs through the one Monte-Carlo front door,
:func:`repro.api.simulate`, over an i.i.d. loss process.
"""

import numpy as np
import pytest

from repro import api
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.experiments.registry import FIGURE3_CV
from repro.lossprocess import DeterministicIntervals, ShiftedExponentialIntervals


def simulate(formula, process, control="basic", **fields):
    """One Monte-Carlo point of ``formula`` over ``process``."""
    return api.simulate(api.SimConfig(
        formula=formula, loss_process=process, control=control, **fields,
    ))


def analytic_throughput(formula, process, num_events, seed=None, control="basic"):
    """Proposition 1 (basic) or 3 (comprehensive) through the facade, L = 8."""
    return api.simulate(api.SimConfig(
        formula=formula, loss_process=process, history_length=8,
        control=control, method="analytic", num_events=num_events, seed=seed,
    )).throughput


class TestBasicControlMonteCarlo:
    def test_simulation_and_analytic_agree(self, pftk_simplified):
        """For i.i.d. intervals the sequential simulation and the direct
        Monte-Carlo evaluation of Proposition 1 converge to the same value."""
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        simulated = simulate(
            pftk_simplified, process, num_events=60_000, history_length=8, seed=1
        )
        analytic = analytic_throughput(
            pftk_simplified, process, num_events=200_000, seed=2
        )
        assert simulated.throughput == pytest.approx(analytic, rel=0.03)

    def test_deterministic_process_reaches_formula(self, pftk_simplified):
        process = DeterministicIntervals(25.0)
        result = simulate(
            pftk_simplified, process, num_events=500, history_length=8, seed=3
        )
        assert result.normalized_throughput == pytest.approx(1.0, rel=1e-9)
        assert result.estimator_cv == pytest.approx(0.0, abs=1e-12)

    def test_loss_event_rate_matches_process(self, sqrt_formula):
        """The rate observed in the sampled sequence, not the nominal one
        (``SimResult.loss_event_rate``), which would pass trivially."""
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.05, 0.9)
        result = simulate(
            sqrt_formula, process, num_events=50_000, history_length=4, seed=4
        )
        assert result.empirical_loss_event_rate != result.loss_event_rate
        assert result.empirical_loss_event_rate == pytest.approx(0.05, rel=0.03)

    def test_weights_and_history_length_are_exclusive(self, sqrt_formula):
        process = DeterministicIntervals(10.0)
        with pytest.raises(ValueError):
            simulate(
                sqrt_formula, process, num_events=100,
                profile={"kind": "custom", "raw_weights": [0.5, 0.5]},
                history_length=2,
            )

    def test_minimum_events_enforced(self, sqrt_formula):
        process = DeterministicIntervals(10.0)
        with pytest.raises(ValueError):
            simulate(sqrt_formula, process, num_events=5)


class TestComprehensiveControlMonteCarlo:
    def test_comprehensive_above_basic(self, pftk_simplified):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        basic = simulate(
            pftk_simplified, process, num_events=40_000, history_length=8, seed=5
        )
        comprehensive = simulate(
            pftk_simplified, process, "comprehensive",
            num_events=40_000, history_length=8, seed=5,
        )
        assert comprehensive.normalized_throughput > basic.normalized_throughput

    def test_analytic_comprehensive_close_to_simulation(self, pftk_simplified):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        simulated = simulate(
            pftk_simplified, process, "comprehensive",
            num_events=60_000, history_length=8, seed=6,
        )
        analytic = analytic_throughput(
            pftk_simplified, process, num_events=200_000, seed=7,
            control="comprehensive",
        )
        assert simulated.throughput == pytest.approx(analytic, rel=0.05)

    # (p, cv, L) -> formula -> relative tolerance: four to six standard
    # deviations of the gap over ten seed pairs at these sizes.
    # pftk-standard sits out (0.2, 0.999, 2): its g grows like x^-3
    # towards the 0.005-packet shift of that law, and both estimates
    # move by up to a half from seed to seed.
    ONE_V0_POINTS = {
        (0.05, 0.9, 8): {"aimd": 0.015, "msmo97": 0.015, "pftk-standard": 0.025},
        (0.2, 0.999, 8): {"aimd": 0.015, "msmo97": 0.015, "pftk-standard": 0.05},
        (0.2, 0.999, 2): {"aimd": 0.015, "msmo97": 0.015},
    }

    @pytest.mark.parametrize(
        "point", sorted(ONE_V0_POINTS),
        ids=lambda point: "p{}-cv{}-L{}".format(*point))
    def test_analytic_comprehensive_matches_simulation_beyond_pftk_simplified(
        self, point
    ):
        """Proposition 3 for aimd, msmo97 and pftk-standard: the analytic
        and the Monte-Carlo comprehensive control subtract the same V_0,
        from each formula's closed-form growth_time, and converge to the
        same throughput."""
        p, cv, history_length = point
        tolerances = self.ONE_V0_POINTS[point]
        common = dict(
            formulas=sorted(tolerances),
            loss_event_rates=[p], coefficients_of_variation=[cv],
            history_lengths=[history_length], control="comprehensive",
            num_events=40_000, share_noise=False,
        )
        analytic = api.simulate_batch(
            api.BatchConfig(method="analytic", seed=31, **common))
        simulated = api.simulate_batch(
            api.BatchConfig(method="montecarlo", seed=32, **common))
        for kind, expected, actual in zip(
            common["formulas"], analytic.results, simulated.results
        ):
            assert actual.throughput == pytest.approx(
                expected.throughput, rel=tolerances[kind]
            ), kind

    @pytest.mark.parametrize("method", ["montecarlo", "analytic"])
    def test_inverse_sqrt_laws_are_scale_invariant(self, method):
        """sqrt, aimd, msmo97 and sqrt at another rtt are one law
        k / (scale sqrt(p)) up to the constant factor, which normalising
        by f(p) divides out.  With exact Proposition 3 integrals their
        comprehensive points on common draws agree to rounding."""
        batch = api.simulate_batch(api.BatchConfig(
            formulas=["sqrt", "aimd", "msmo97", {"kind": "sqrt", "rtt": 0.2}],
            loss_event_rates=[0.01, 0.1, 0.4], coefficients_of_variation=[0.999],
            history_lengths=[1], control="comprehensive", method=method, seed=5,
        ))
        for p in (0.01, 0.1, 0.4):
            values = [r.normalized_throughput for r in batch.select(loss_event_rate=p)]
            assert len(values) == 4
            assert np.allclose(values, values[0], rtol=1e-12, atol=0.0), (p, values)


def run_sweep(formula, grid, seed, **base):
    """A basic-control campaign over ``grid``; the point values, in order."""
    spec = ExperimentSpec(
        name="sweep",
        runner="montecarlo-basic",
        base={
            "formula": api.FORMULAS.to_config(formula),
            "num_events": TestSweeps.NUM_EVENTS,
            **base,
        },
        grid=grid,
        seed=seed,
    )
    campaign = ExperimentRunner().run(spec)
    campaign.raise_errors()
    return [result.value for result in campaign.results]


class TestSweeps:
    NUM_EVENTS = 6_000  # enough for qualitative (shape) assertions, fast in CI

    def test_figure3_shape_pftk(self, pftk_simplified):
        """Figure 3 right: PFTK normalized throughput decreases with p and
        increases with L."""
        points = run_sweep(
            pftk_simplified,
            {"history_length": [2, 16], "loss_event_rate": [0.02, 0.2, 0.4]},
            seed=1,
            coefficient_of_variation=FIGURE3_CV,
        )
        by_length = {
            length: {pt["loss_event_rate"]: pt["normalized_throughput"]
                     for pt in points if pt["history_length"] == length}
            for length in (2, 16)
        }
        # Decreasing in p for the small window.
        assert by_length[2][0.4] < by_length[2][0.02]
        # Larger L is less conservative at heavy loss.
        assert by_length[16][0.4] > by_length[2][0.4]

    def test_figure3_sqrt_insensitive_to_p(self, sqrt_formula):
        """Figure 3 left: for SQRT the normalized throughput is essentially
        invariant in p (for this interval distribution family)."""
        points = run_sweep(
            sqrt_formula,
            {"history_length": [8], "loss_event_rate": [0.05, 0.4]},
            seed=2,
            coefficient_of_variation=FIGURE3_CV,
        )
        values = [pt["normalized_throughput"] for pt in points]
        assert abs(values[0] - values[1]) < 0.08

    def test_figure4_shape(self, pftk_simplified):
        """Figure 4: larger cv[theta_0] makes the control more conservative."""
        points = run_sweep(
            pftk_simplified,
            {"history_length": [4], "coefficient_of_variation": [0.1, 0.9]},
            seed=3,
            loss_event_rate=0.1,
        )
        low_cv, high_cv = points[0], points[1]
        assert high_cv["normalized_throughput"] < low_cv["normalized_throughput"]

    def test_history_length_sweep_monotone(self, pftk_simplified):
        """Claim 1: larger estimator window => less conservative."""
        points = run_sweep(
            pftk_simplified,
            {"history_length": [1, 4, 16]},
            seed=4,
            loss_event_rate=0.2,
            coefficient_of_variation=0.999,
        )
        values = [pt["normalized_throughput"] for pt in points]
        assert values[0] < values[1] < values[2]

    def test_all_points_conservative(self, pftk_simplified):
        """Theorem 1's hypotheses hold in the numerical experiments, so every
        sweep point is conservative (allowing statistical noise)."""
        points = run_sweep(
            pftk_simplified,
            {"history_length": [4, 8], "loss_event_rate": [0.05, 0.2]},
            seed=5,
            coefficient_of_variation=FIGURE3_CV,
        )
        assert all(pt["normalized_throughput"] < 1.05 for pt in points)
