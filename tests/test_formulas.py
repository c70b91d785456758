"""Unit tests for the loss-throughput formulas (paper Section II-C, Fig. 1)."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.api.components import FORMULAS
from repro.core.control import _inverse_rate_integral
from repro.core.formulas import (
    AimdFormula,
    LossThroughputFormula,
    Msmo97Formula,
    PftkSimplifiedFormula,
    PftkStandardFormula,
    SqrtFormula,
    default_c1,
    default_c2,
)
from repro.core.shortflow import Csa00LatencyModel


class TestConstants:
    def test_c1_default_b2(self):
        assert default_c1(2) == pytest.approx(math.sqrt(4.0 / 3.0))

    def test_c2_default_b2(self):
        assert default_c2(2) == pytest.approx(1.5 * math.sqrt(3.0))

    def test_c1_rejects_non_positive_b(self):
        with pytest.raises(ValueError):
            default_c1(0)

    def test_c2_rejects_non_positive_b(self):
        with pytest.raises(ValueError):
            default_c2(-1)


class TestSqrtFormula:
    def test_matches_closed_form(self):
        formula = SqrtFormula(rtt=0.1)
        p = 0.02
        expected = 1.0 / (default_c1() * 0.1 * math.sqrt(p))
        assert formula.rate(p) == pytest.approx(expected)

    def test_rate_decreases_with_loss(self):
        formula = SqrtFormula(rtt=1.0)
        assert formula.rate(0.01) > formula.rate(0.1) > formula.rate(0.5)

    def test_rate_scales_inversely_with_rtt(self):
        fast = SqrtFormula(rtt=0.05)
        slow = SqrtFormula(rtt=0.5)
        assert fast.rate(0.01) == pytest.approx(10.0 * slow.rate(0.01))

    def test_derivative_matches_numerical(self):
        formula = SqrtFormula(rtt=1.0)
        p = 0.05
        h = 1e-7
        numerical = (formula.rate(p + h) - formula.rate(p - h)) / (2 * h)
        assert formula.rate_derivative(p) == pytest.approx(numerical, rel=1e-4)

    def test_vector_input_returns_array(self):
        formula = SqrtFormula(rtt=1.0)
        values = formula.rate(np.array([0.01, 0.1]))
        assert isinstance(values, np.ndarray)
        assert values.shape == (2,)

    def test_rejects_non_positive_loss_rate(self):
        formula = SqrtFormula(rtt=1.0)
        with pytest.raises(ValueError):
            formula.rate(0.0)

    def test_rejects_non_positive_rtt(self):
        with pytest.raises(ValueError):
            SqrtFormula(rtt=0.0)


class TestPftkFormulas:
    def test_standard_and_simplified_agree_for_small_p(self):
        """For p <= 1/c2^2 the two PFTK variants coincide (paper remark)."""
        standard = PftkStandardFormula(rtt=1.0)
        simplified = PftkSimplifiedFormula(rtt=1.0)
        threshold = 1.0 / default_c2() ** 2
        for p in (0.01, 0.05, threshold * 0.99):
            assert standard.rate(p) == pytest.approx(simplified.rate(p), rel=1e-12)

    def test_simplified_smaller_for_large_p(self):
        """For p > 1/c2^2 the simplified formula is smaller."""
        standard = PftkStandardFormula(rtt=1.0)
        simplified = PftkSimplifiedFormula(rtt=1.0)
        threshold = 1.0 / default_c2() ** 2
        for p in (threshold * 1.5, 0.4, 0.8):
            assert simplified.rate(p) < standard.rate(p)

    def test_pftk_below_sqrt(self):
        """The timeout term only reduces the rate relative to SQRT."""
        sqrt_formula = SqrtFormula(rtt=1.0)
        for formula in (PftkStandardFormula(rtt=1.0), PftkSimplifiedFormula(rtt=1.0)):
            for p in (0.01, 0.1, 0.3):
                assert formula.rate(p) < sqrt_formula.rate(p)

    def test_default_rto_is_four_rtts(self):
        formula = PftkStandardFormula(rtt=0.2)
        assert formula.rto == pytest.approx(0.8)

    def test_rate_decreasing(self):
        for formula in (PftkStandardFormula(rtt=1.0), PftkSimplifiedFormula(rtt=1.0)):
            grid = np.linspace(0.005, 0.9, 200)
            rates = formula.rate(grid)
            assert np.all(np.diff(rates) < 0.0)

    def test_standard_derivative_matches_numerical(self):
        formula = PftkStandardFormula(rtt=1.0)
        for p in (0.01, 0.1, 0.3):
            h = 1e-7
            numerical = (formula.rate(p + h) - formula.rate(p - h)) / (2 * h)
            assert formula.rate_derivative(p) == pytest.approx(numerical, rel=1e-3)

    def test_simplified_derivative_matches_numerical(self):
        formula = PftkSimplifiedFormula(rtt=1.0)
        for p in (0.01, 0.1, 0.3):
            h = 1e-7
            numerical = (formula.rate(p + h) - formula.rate(p - h)) / (2 * h)
            assert formula.rate_derivative(p) == pytest.approx(numerical, rel=1e-3)

    def test_converges_to_sqrt_for_rare_losses(self):
        """SQRT is the limit of the PFTK formulas for rare losses."""
        sqrt_formula = SqrtFormula(rtt=1.0)
        standard = PftkStandardFormula(rtt=1.0)
        p = 1e-6
        assert standard.rate(p) == pytest.approx(sqrt_formula.rate(p), rel=1e-2)


class TestDerivedMappings:
    def test_g_is_reciprocal_of_rate_of_interval(self):
        formula = PftkSimplifiedFormula(rtt=1.0)
        x = 25.0
        assert formula.g(x) == pytest.approx(1.0 / formula.rate_of_interval(x))

    def test_rate_of_interval_accepts_arrays(self):
        formula = SqrtFormula(rtt=1.0)
        x = np.array([4.0, 9.0, 100.0])
        values = formula.rate_of_interval(x)
        assert values.shape == (3,)
        assert np.all(np.diff(values) > 0.0)

    def test_rate_of_interval_rejects_non_positive(self):
        formula = SqrtFormula(rtt=1.0)
        with pytest.raises(ValueError):
            formula.rate_of_interval(0.0)


class TestAimdFormula:
    def test_constant_matches_paper(self):
        formula = AimdFormula(alpha=1.0, beta=0.5, rtt=1.0)
        assert formula.constant == pytest.approx(math.sqrt(1.5))

    def test_rejects_invalid_beta(self):
        with pytest.raises(ValueError):
            AimdFormula(alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            AimdFormula(alpha=1.0, beta=0.0)

    def test_rate_inverse_sqrt_in_p(self):
        formula = AimdFormula(alpha=1.0, beta=0.5, rtt=1.0)
        assert formula.rate(0.01) == pytest.approx(2.0 * formula.rate(0.04))


class TestMsmo97Formula:
    def test_matches_closed_form(self):
        formula = Msmo97Formula(rtt=0.2, b=1)
        p = 0.04
        expected = math.sqrt(1.5) / (0.2 * math.sqrt(p))
        assert formula.rate(p) == pytest.approx(expected)

    def test_constant_property(self):
        assert Msmo97Formula(b=1).constant == pytest.approx(math.sqrt(1.5))
        assert Msmo97Formula(b=2).constant == pytest.approx(math.sqrt(0.75))

    def test_b2_coincides_with_sqrt_formula(self):
        # At b=2 the Mathis constant sqrt(3/(2b)) equals 1/c1, so MSMO97
        # and the paper's SQRT formula are the same curve.
        msmo = Msmo97Formula(rtt=0.5, b=2)
        sqrt = SqrtFormula(rtt=0.5)
        for p in (0.001, 0.05, 0.3):
            assert msmo.rate(p) == pytest.approx(sqrt.rate(p))

    def test_derivative_matches_numerical(self):
        formula = Msmo97Formula(rtt=1.0)
        p = 0.05
        h = 1e-7
        numerical = (formula.rate(p + h) - formula.rate(p - h)) / (2 * h)
        assert formula.rate_derivative(p) == pytest.approx(numerical, rel=1e-4)

    def test_vector_input_returns_array(self):
        formula = Msmo97Formula(rtt=1.0)
        values = formula.rate(np.array([0.01, 0.04]))
        assert isinstance(values, np.ndarray)
        assert values[0] == pytest.approx(2.0 * values[1])

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            Msmo97Formula(rtt=0.0)
        with pytest.raises(ValueError):
            Msmo97Formula(b=0)

    def test_registry_round_trip(self):
        formula = Msmo97Formula(rtt=0.2, b=1)
        config = FORMULAS.to_config(formula)
        assert config["kind"] == "msmo97"
        assert FORMULAS.from_config(config) == formula


class TestRegistry:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("sqrt", SqrtFormula),
            ("pftk-standard", PftkStandardFormula),
            ("pftk_simplified", PftkSimplifiedFormula),
            ("aimd", AimdFormula),
            ("msmo97", Msmo97Formula),
        ],
    )
    def test_from_config_by_kind(self, name, cls):
        assert isinstance(FORMULAS.from_config(name), cls)

    def test_from_config_forwards_kwargs(self):
        formula = FORMULAS.from_config({"kind": "sqrt", "rtt": 0.25})
        assert formula.rtt == pytest.approx(0.25)

    def test_from_config_unknown_kind(self):
        with pytest.raises(KeyError):
            FORMULAS.from_config("cubic")


class TestLossRateDomain:
    """The p-domain contract shared by every registered formula kind.

    Before the uniform guard, a nan slipped through every formula
    silently (nan fails the ``<= 0`` comparison) and an inf produced a
    silent 0.0 rate instead of a domain error.
    """

    @pytest.mark.parametrize("kind", sorted(FORMULAS.kinds()))
    @pytest.mark.parametrize(
        "p", [0.0, -0.01, float("nan"), float("inf"), float("-inf")],
        ids=["zero", "negative", "nan", "inf", "-inf"],
    )
    def test_every_kind_rejects_out_of_domain_p(self, kind, p):
        formula = FORMULAS.from_config(kind)
        with pytest.raises(ValueError):
            formula.rate(p)

    @pytest.mark.parametrize("kind", sorted(FORMULAS.kinds()))
    def test_every_kind_rejects_a_poisoned_array(self, kind):
        formula = FORMULAS.from_config(kind)
        with pytest.raises(ValueError):
            formula.rate(np.array([0.1, float("nan"), 0.2]))

    @pytest.mark.parametrize("kind", sorted(FORMULAS.kinds()))
    def test_every_kind_is_finite_on_the_closed_upper_boundary(self, kind):
        # p may reach (and exceed) 1: the controls evaluate f at
        # 1/theta_hat, which transiently falls below one packet under
        # heavy loss.  The rate must stay finite and positive there.
        formula = FORMULAS.from_config(kind)
        for p in (1.0, 1.5):
            rate = formula.rate(p)
            assert math.isfinite(rate)
            assert rate > 0.0


#: Every registered formula, and a PFTK-standard whose branch switch
#: ``c2^2`` moves from 6.75 to 3.375.
GROWTH_FORMULAS = dict(
    FORMULAS.examples(),
    **{"pftk-standard-moved-switch": PftkStandardFormula(rtt=0.2, rto=1.0, b=1)},
)


def _growth_intervals():
    """``(lower, upper)`` pairs: from 0.004 packets with ratios up to 1e4,
    pairs on both sides of and straddling each PFTK switch, and tiny
    growths."""
    lower = np.geomspace(0.004, 500.0, 13)
    ratios = np.array([1.001, 1.3, 2.0, np.e**2, 1e2, 1e4])
    grid = np.stack(np.broadcast_arrays(lower[:, None], np.outer(lower, ratios)))
    extra = np.array([
        (6.0, 7.0), (6.74, 6.76), (1.0, 10.0), (6.75, 8.0), (5.0, 6.75),
        (3.3, 3.45), (3.0, 4.0), (300.0, 301.0), (0.5, 0.5005),
    ]).T
    return np.concatenate([grid.reshape(2, -1), extra], axis=1)


class TestClosedForms:
    """A formula's closed forms against independent computations."""

    @pytest.mark.parametrize("name", sorted(GROWTH_FORMULAS))
    def test_growth_time_matches_the_oracle_quadrature(self, name):
        # Proposition 3's closed-form integral of g against the loop
        # oracle's Gauss-Legendre quadrature of 1/f(1/y).
        formula = GROWTH_FORMULAS[name]
        lower, upper = _growth_intervals()
        closed = formula.growth_time(lower, upper)
        quadrature = [
            _inverse_rate_integral(formula, a, b) for a, b in zip(lower, upper)
        ]
        assert np.allclose(closed, quadrature, rtol=1e-12, atol=0.0)

    def test_growth_time_is_abstract(self):
        # A formula without Proposition 3's integral cannot be built.
        class NoIntegral(LossThroughputFormula):
            rtt = 1.0

            def rate(self, p):
                return 1.0 / np.sqrt(p)

            def rate_derivative(self, p):
                return -0.5 / p**1.5

        with pytest.raises(TypeError, match="growth_time"):
            NoIntegral()

    def test_inverse_sqrt_law_is_one_formula(self):
        # SQRT at b = 1 and MSMO97 are the same law with k and scale
        # placed differently; their rates and g agree to rounding.
        sqrt = SqrtFormula(rtt=0.2, b=1)
        msmo97 = Msmo97Formula(rtt=0.2, b=1)
        p = np.geomspace(1e-4, 1.0, 50)
        assert np.allclose(sqrt.rate(p), msmo97.rate(p), rtol=1e-14, atol=0.0)
        assert np.allclose(sqrt.g(1.0 / p), msmo97.g(1.0 / p), rtol=1e-14, atol=0.0)


def _parameter_names(component):
    return [item.name for item in dataclasses.fields(component)]


class TestParameterDomain:
    """Every registered formula and the CSA00 latency model reject a
    non-finite parameter: JSON decoders read NaN, Infinity and 1e999,
    and such a parameter would yield nan rates.  (A negative ``rto``,
    -inf included, is the fill-in sentinel for the default timeout.)"""

    @pytest.mark.parametrize("kind", sorted(FORMULAS.kinds()))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_every_kind_rejects_a_non_finite_parameter(self, kind, value):
        config = FORMULAS.to_config(FORMULAS.examples()[kind])
        for name in _parameter_names(FORMULAS.examples()[kind]):
            with pytest.raises(ValueError, match=name):
                FORMULAS.from_config(dict(config, **{name: value}))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
    def test_json_non_finite_tokens_are_rejected(self, token):
        config = json.loads('{"kind": "sqrt", "rtt": %s}' % token)
        with pytest.raises(ValueError, match="rtt must be finite"):
            FORMULAS.from_config(config)

    @pytest.mark.parametrize("kind, name", [
        (kind, name)
        for kind in sorted(FORMULAS.kinds())
        for name in ("rtt", "c1", "c2")
        if name in _parameter_names(FORMULAS.examples()[kind])
    ])
    def test_non_positive_scale_parameters_are_rejected(self, kind, name):
        # c1 = c2 = 0 is the fill-in sentinel; a negative value survives
        # the fill-ins and must be rejected after them.
        formula = FORMULAS.examples()[kind]
        config = dict(FORMULAS.to_config(formula), **{name: -1.0})
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            FORMULAS.from_config(config)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_latency_model_rejects_a_non_finite_parameter(self, value):
        for name in _parameter_names(Csa00LatencyModel()):
            with pytest.raises(ValueError, match=name):
                Csa00LatencyModel(**{name: value})
        with pytest.raises(ValueError, match="rtt must be positive"):
            Csa00LatencyModel(rtt=0.0)
