"""Tests for the short-flow latency subsystem (CSA00).

Covers the :class:`repro.core.shortflow.Csa00LatencyModel` against an
independent plain-``math`` re-derivation of the documented equations
(and against frozen literal references to 1e-9), the p-domain and
constructor validation, the ``LATENCY_MODELS`` registry round-trip, the
``shortflow`` experiment runner with its ``fig-shortflow`` preset (whose
in-process run equals a process-pool run), the analysis-layer
friendliness-vs-size curves, and the ``shortflow`` CLI command.
"""

import json
import math

import numpy as np
import pytest

from repro import api
from repro.analysis import (
    ShortFlowFriendliness,
    compare_latency_models,
    shortflow_friendliness,
)
from repro.cli import main as cli_main
from repro.core.formulas import PftkStandardFormula
from repro.core.shortflow import Csa00LatencyModel, LatencyModel
from repro.experiments import preset
from repro.experiments.registry import (
    run_campaign_batched,
    run_shortflow_point,
)


# ----------------------------------------------------------------------
# Independent reference implementation (plain math, no numpy)
# ----------------------------------------------------------------------
def csa00_reference(size, p, rtt, w1=2, gamma=1.5, wmax=718.0, b=2,
                    ts=3.0, da=0.1):
    """Re-derive the CSA00 expectation from the documented equations.

    Deliberately written with scalar :mod:`math` only, following the
    equation numbering of the module docstring, so it shares no code
    with the vectorised implementation under test.
    """
    q = 1.0 - p
    rto = 2.0 * rtt
    # Eq. 4: handshake with both directions lossy at rate p.
    handshake = rtt + ts * (2.0 * q / (1.0 - 2.0 * p) - 2.0)
    # Eq. 5: packets sent in the initial slow start.
    d = math.ceil(size)
    dss = min(math.floor((1.0 - q**d) * q / p + 1.0), d)
    # Eq. 11: expected window at the end of slow start.
    wss = dss * (gamma - 1.0) / gamma + w1 / gamma
    # Eq. 15: slow-start time, receive-window branch when capped.
    if wss > wmax:
        slow_start = rtt * (
            math.log(wmax / w1, gamma) + 1.0
            + (dss - (gamma * wmax - w1) / (gamma - 1.0)) / wmax
        )
    else:
        slow_start = rtt * math.log(dss * (gamma - 1.0) / w1 + 1.0, gamma)
    # Eqs. 16-20: cost of the loss ending slow start.
    lss = 1.0 - q**d
    g = (1.0 + p + 2.0 * p**2 + 4.0 * p**3 + 8.0 * p**4
         + 16.0 * p**5 + 32.0 * p**6)
    zto = g * rto / q

    def timeout_probability(w):
        w = max(w, 1.0)
        return min(
            1.0,
            (1.0 + q**3 * (1.0 - q ** (w - 3.0)))
            / ((1.0 - q**w) / (1.0 - q**3)),
        )

    qe = timeout_probability(wss)
    loss_recovery = lss * (qe * zto + (1.0 - qe) * rtt)
    # Eqs. 21-24: congestion-avoidance remainder at the PFTK98 rate.
    shape = (2.0 + b) / (3.0 * b)
    ew = shape + math.sqrt(8.0 * q / (3.0 * b * p) + shape**2)
    if ew < wmax:
        rate = (q / p + ew / 2.0 + timeout_probability(ew)) / (
            rtt * (b / 2.0 * ew + 1.0) + timeout_probability(ew) * zto
        )
    else:
        rate = (q / p + wmax / 2.0 + timeout_probability(wmax)) / (
            rtt * (b / 8.0 * wmax + q / (p * wmax) + 2.0)
            + timeout_probability(wmax) * zto
        )
    congestion_avoidance = max(d - dss, 0.0) / rate
    return handshake + slow_start + loss_recovery + congestion_avoidance + da


# Frozen outputs of csa00_reference at defaults, guarding both the model
# and the reference function above against silent drift.
REFERENCE_POINTS = [
    (10.0, 0.02, 0.1, 0.6679599628262082),
    (100.0, 0.02, 0.1, 2.168369243120955),
    (1000.0, 0.1, 0.1, 61.72109545516805),
    (5.0, 0.3, 0.2, 6.915503748542244),
    (250.0, 0.05, 0.5, 45.630702689759154),
]


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
class TestCsa00Reference:
    @pytest.mark.parametrize(
        "size, p, rtt, expected", REFERENCE_POINTS,
        ids=[f"size={s:g}-p={p:g}-rtt={r:g}" for s, p, r, _ in REFERENCE_POINTS],
    )
    def test_matches_hand_computed_reference(self, size, p, rtt, expected):
        model = Csa00LatencyModel(rtt=rtt)
        assert abs(model.latency(size, p) - expected) < 1e-9
        # The independent scalar re-derivation agrees to the same tol.
        assert abs(csa00_reference(size, p, rtt) - expected) < 1e-9

    def test_components_sum_to_latency(self):
        model = Csa00LatencyModel(rtt=0.1)
        parts = model.components(64.0, 0.05)
        total = (
            parts["handshake"] + parts["slow_start"] + parts["loss_recovery"]
            + parts["congestion_avoidance"] + parts["delayed_ack"]
        )
        assert parts["latency"] == pytest.approx(total, abs=1e-12)
        assert all(value >= 0.0 for value in parts.values())

    def test_rto_defaults_to_twice_rtt(self):
        assert Csa00LatencyModel(rtt=0.25).rto == pytest.approx(0.5)
        assert Csa00LatencyModel(rtt=0.25, rto=1.0).rto == 1.0

    def test_scalar_in_scalar_out(self):
        result = Csa00LatencyModel(rtt=0.1).latency(10.0, 0.02)
        assert isinstance(result, float)

    def test_vectorised_matches_scalar(self):
        model = Csa00LatencyModel(rtt=0.1)
        sizes = np.array([4.0, 16.0, 64.0, 256.0])
        rates = np.array([0.01, 0.05, 0.1, 0.3])
        vector = model.latency(sizes, rates)
        assert isinstance(vector, np.ndarray)
        for i in range(sizes.size):
            assert vector[i] == model.latency(float(sizes[i]), float(rates[i]))

    def test_broadcast_grid(self):
        model = Csa00LatencyModel(rtt=0.1)
        grid_latency = model.latency(
            np.array([10.0, 100.0])[:, None], np.array([0.02, 0.1])[None, :]
        )
        assert grid_latency.shape == (2, 2)
        assert grid_latency[1, 0] == model.latency(100.0, 0.02)

    def test_latency_increases_with_size(self):
        model = Csa00LatencyModel(rtt=0.1)
        latencies = [model.latency(s, 0.05) for s in (4.0, 16.0, 64.0, 256.0)]
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[-1]

    def test_transfer_rate_is_size_over_latency(self):
        model = Csa00LatencyModel(rtt=0.1)
        assert model.transfer_rate(50.0, 0.05) == pytest.approx(
            50.0 / model.latency(50.0, 0.05)
        )

    def test_transfer_rate_approaches_steady_state_from_below(self):
        # The effective rate of a short flow sits below the long-flow
        # asymptote and climbs towards it with size.
        model = Csa00LatencyModel(rtt=0.1)
        rates = [model.transfer_rate(s, 0.05) for s in (8.0, 64.0, 4096.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_callable_protocol(self):
        model = Csa00LatencyModel(rtt=0.1)
        assert model(10.0, 0.02) == model.latency(10.0, 0.02)
        assert isinstance(model, LatencyModel)


class TestCsa00Domain:
    @pytest.mark.parametrize("p", [0.0, -0.01, 0.5, 0.7, float("nan"),
                                   float("inf")])
    def test_rejects_out_of_domain_loss_rate(self, p):
        with pytest.raises(ValueError):
            Csa00LatencyModel(rtt=0.1).latency(10.0, p)

    def test_rejects_array_with_one_bad_rate(self):
        with pytest.raises(ValueError):
            Csa00LatencyModel(rtt=0.1).latency(10.0, np.array([0.1, 0.5]))

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_size(self, size):
        with pytest.raises(ValueError):
            Csa00LatencyModel(rtt=0.1).latency(size, 0.02)

    @pytest.mark.parametrize("kwargs", [
        {"rtt": 0.0},
        {"rtt": -1.0},
        {"initial_window": 0},
        {"initial_window": 1.5},
        {"gamma": 1.0},
        {"max_window": float("inf")},
        {"max_window": 1.0, "initial_window": 2},
        {"b": 0},
        {"syn_timeout": -1.0},
        {"delayed_ack": -0.1},
    ])
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            Csa00LatencyModel(**{"rtt": 0.1, **kwargs})


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestLatencyModelRegistry:
    def test_csa00_registered_with_deterministic_default_window(self):
        model = api.LATENCY_MODELS.from_config({"kind": "csa00", "rtt": 0.1})
        assert isinstance(model, Csa00LatencyModel)
        assert model.initial_window == 2

    def test_exact_json_round_trip(self):
        model = Csa00LatencyModel(rtt=0.1, initial_window=4)
        config = api.LATENCY_MODELS.to_config(model)
        replayed = json.loads(json.dumps(config))
        assert api.LATENCY_MODELS.from_config(replayed) == model
        assert api.LATENCY_MODELS.to_config(
            api.LATENCY_MODELS.from_config(replayed)
        ) == config

    def test_same_config_same_latency(self):
        # The registry contract that motivated the deterministic
        # initial_window: one config, one latency, every time.
        config = {"kind": "csa00", "rtt": 0.1, "initial_window": 2}
        first = api.LATENCY_MODELS.from_config(dict(config))
        second = api.LATENCY_MODELS.from_config(dict(config))
        assert first.latency(100.0, 0.02) == second.latency(100.0, 0.02)


# ----------------------------------------------------------------------
# Experiments: the shortflow runner and preset
# ----------------------------------------------------------------------
class TestShortflowRunner:
    def test_point_matches_model(self):
        value = run_shortflow_point(
            {
                "latency_model": {"kind": "csa00", "rtt": 0.1},
                "formula": {"kind": "pftk-standard", "rtt": 0.1},
                "transfer_size": 100.0,
                "loss_event_rate": 0.02,
            },
            seed=None,
        )
        model = Csa00LatencyModel(rtt=0.1)
        assert value["latency"] == model.latency(100.0, 0.02)
        assert value["transfer_rate"] == pytest.approx(
            100.0 / value["latency"]
        )
        steady = PftkStandardFormula(rtt=0.1).rate(0.02)
        assert value["steady_state_rate"] == pytest.approx(steady)
        assert value["rate_ratio"] == pytest.approx(
            value["transfer_rate"] / steady
        )

    def test_rtt_axis_rederives_rto(self):
        # The rtt override flows through the config dict, so CSA00's
        # rto = 2 * rtt fill-in re-derives at the swept RTT.
        value = run_shortflow_point(
            {
                "latency_model": {"kind": "csa00"},
                "transfer_size": 10.0,
                "loss_event_rate": 0.02,
                "rtt": 0.2,
            },
            seed=None,
        )
        assert value["rtt"] == 0.2
        assert value["latency"] == Csa00LatencyModel(rtt=0.2).latency(
            10.0, 0.02
        )

    def test_fig_shortflow_preset_shape(self):
        spec = preset("fig-shortflow")
        points = spec.expand()
        assert spec.runner == "shortflow"
        assert len(points) == 50  # 5 sizes x 5 loss rates x 2 RTTs

    def test_batched_equals_pooled(self, pool_run):
        # Shortflow runs in process; forcing the same spec through the
        # process pool must not change a single value.
        spec = preset("fig-shortflow")
        batched = run_campaign_batched(spec, workers=2)
        pooled = pool_run(spec)
        batched.raise_errors()
        pooled.raise_errors()
        assert len(batched.results) == len(pooled.results) == 50
        for fast, slow in zip(batched.results, pooled.results):
            assert fast.point.params == slow.point.params
            assert json.dumps(fast.value, sort_keys=True) == json.dumps(
                slow.value, sort_keys=True
            )


# ----------------------------------------------------------------------
# Analysis: friendliness vs flow size
# ----------------------------------------------------------------------
class TestShortflowAnalysis:
    def test_ratio_climbs_with_size_towards_one(self):
        curve = shortflow_friendliness(
            Csa00LatencyModel(rtt=0.1),
            PftkStandardFormula(rtt=0.1),
            sizes=[4.0, 16.0, 64.0, 256.0, 4096.0],
            loss_event_rate=0.05,
        )
        ratios = curve.rate_ratios()
        assert list(ratios) == sorted(ratios)
        assert ratios[0] < 0.5
        assert all(0.0 < ratio < 1.5 for ratio in ratios)

    def test_breakdown_reuses_friendliness_machinery(self):
        curve = shortflow_friendliness(
            Csa00LatencyModel(rtt=0.1),
            PftkStandardFormula(rtt=0.1),
            sizes=[64.0],
            loss_event_rate=0.05,
        )
        point = curve.points[0]
        # By construction the two observations share p and RTT, so the
        # breakdown isolates the conservativeness (throughput) axis.
        assert point.breakdown.throughput_ratio == pytest.approx(
            point.transfer_rate / point.steady_state_rate
        )
        assert point.rate_ratio == point.breakdown.throughput_ratio

    def test_crossover_size(self):
        curve = shortflow_friendliness(
            Csa00LatencyModel(rtt=0.1),
            PftkStandardFormula(rtt=0.1),
            sizes=[4.0, 16.0, 64.0, 256.0, 4096.0],
            loss_event_rate=0.05,
        )
        assert curve.crossover_size(0.5) == 16.0
        # An unreachable threshold reports None rather than guessing.
        tiny = shortflow_friendliness(
            Csa00LatencyModel(rtt=0.1),
            PftkStandardFormula(rtt=0.1),
            sizes=[4.0],
            loss_event_rate=0.05,
        )
        assert tiny.crossover_size(1.0) is None
        with pytest.raises(ValueError):
            curve.crossover_size(0.0)
        with pytest.raises(ValueError):
            curve.crossover_size(1.5)

    def test_requires_sizes(self):
        with pytest.raises(ValueError):
            shortflow_friendliness(
                Csa00LatencyModel(rtt=0.1),
                PftkStandardFormula(rtt=0.1),
                sizes=[],
                loss_event_rate=0.05,
            )

    def test_compare_latency_models(self):
        curves = compare_latency_models(
            {
                "w1=2": Csa00LatencyModel(rtt=0.1, initial_window=2),
                "w1=4": Csa00LatencyModel(rtt=0.1, initial_window=4),
            },
            PftkStandardFormula(rtt=0.1),
            sizes=[16.0, 64.0],
            loss_event_rate=0.05,
        )
        assert set(curves) == {"w1=2", "w1=4"}
        assert all(isinstance(c, ShortFlowFriendliness) for c in curves.values())
        assert curves["w1=2"].label == "w1=2"
        # A larger initial window finishes slow start sooner, so its
        # short-flow rate ratio is at least as high at every size.
        for a, b in zip(curves["w1=4"].rate_ratios(),
                        curves["w1=2"].rate_ratios()):
            assert a >= b


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestShortflowCli:
    def test_shortflow_prints_curve_and_crossover(self, capsys):
        exit_code = cli_main([
            "shortflow", "--loss-rate", "0.05", "--rtt", "0.1",
            "--sizes", "4", "16", "64", "256",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "E[latency] s" in captured.out
        assert "first size at >= 50% of steady state: 16 packets" in captured.out

    def test_fig_shortflow_runs_from_the_cli(self, capsys):
        exit_code = cli_main([
            "experiments", "run", "fig-shortflow", "--quiet",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "50/50 points succeeded" in captured.out
