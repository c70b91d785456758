"""Tests for the unified component-config API (repro.api).

Covers the registry contract (exact JSON round-trip for every registered
component of every family, and a preset, CLI default or example spec
naming every registered kind), the simulate()/simulate_batch() facade
(dispatch, config round-trip, batch-vs-scalar equivalence), and the
vectorised control kernel against the loop implementations.
"""

import ast
import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.cli
import repro.experiments.registry
from repro import api
from repro.api import components
from repro.core.control import BasicControl, ComprehensiveControl
from repro.core.estimator import tfrc_weights, uniform_weights
from repro.core.formulas import (
    PftkSimplifiedFormula,
    PftkStandardFormula,
    SqrtFormula,
)
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.lossprocess import ShiftedExponentialIntervals, make_rng
from repro.montecarlo.vectorized import (
    evaluate_control_arrays,
    sliding_estimates,
    summarize_rows,
    vectorized_control_trace,
)
from repro.simulator.scenarios import _build_queue

REGISTRIES = {
    "formula": api.FORMULAS,
    "loss-process": api.LOSS_PROCESSES,
    "weight-profile": api.WEIGHT_PROFILES,
    "scenario": api.SCENARIOS,
    "generator": api.GENERATORS,
    "latency-model": api.LATENCY_MODELS,
}

ALL_COMPONENTS = [
    (family, kind)
    for family, registry in REGISTRIES.items()
    for kind in registry.examples()
]

ALL_KINDS = [
    (family, kind)
    for family, registry in REGISTRIES.items()
    for kind in registry.kinds()
]

#: Modules whose string literals name kinds in use: the figure presets
#: and the CLI defaults.
REFERENCE_MODULES = (repro.experiments.registry, repro.cli)
SPEC_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"


def _string_literals(path):
    """Every string literal of a module, docstrings excluded: docstrings
    enumerate whole kind tables and would mask an unused kind."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    }


def _json_strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _json_strings(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _json_strings(item)


@pytest.fixture(scope="module")
def kind_references():
    """Every string a preset, a CLI default or an example spec holds."""
    references = set()
    for module in REFERENCE_MODULES:
        references |= _string_literals(module.__file__)
    for path in sorted(SPEC_DIR.glob("*.json")):
        references.update(_json_strings(json.loads(path.read_text())))
    return references


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
class TestRegistryRoundTrip:
    @pytest.mark.parametrize(
        "family, kind", ALL_COMPONENTS,
        ids=[f"{family}:{kind}" for family, kind in ALL_COMPONENTS],
    )
    def test_every_registered_component_round_trips(self, family, kind):
        registry = REGISTRIES[family]
        obj = registry.examples()[kind]
        config = registry.to_config(obj)
        # The config must survive a real JSON round trip unchanged...
        rehydrated = json.loads(json.dumps(config))
        rebuilt = registry.from_config(rehydrated)
        # ...and reconstruct an equal object of the same type.
        assert type(rebuilt) is type(obj)
        assert rebuilt == obj
        # Serialising again gives the identical config.
        assert registry.to_config(rebuilt) == json.loads(json.dumps(config))

    def test_every_kind_declares_an_example(self):
        for registry in REGISTRIES.values():
            assert sorted(registry.examples()) == registry.kinds()

    def test_every_registry_is_covered(self):
        # The tests here see only the registries listed in REGISTRIES.
        assert len(REGISTRIES) == len(components.REGISTRIES)
        assert set(REGISTRIES.values()) == set(components.REGISTRIES)

    @pytest.mark.parametrize(
        "family, kind", ALL_KINDS,
        ids=[f"{family}:{kind}" for family, kind in ALL_KINDS],
    )
    def test_every_registered_kind_is_referenced(
        self, family, kind, kind_references
    ):
        # A kind no preset, CLI default or example spec names ships a
        # construction path that no campaign exercises.
        assert kind in kind_references, (
            f"{family} kind {kind!r} is named by no string in "
            "experiments/registry.py or cli.py (docstrings excluded) "
            "and by no value in examples/specs/*.json"
        )

    def test_instances_pass_through(self):
        formula = SqrtFormula(rtt=0.5)
        assert api.FORMULAS.from_config(formula) is formula

    def test_kind_string_and_aliases(self):
        assert isinstance(
            api.FORMULAS.from_config("pftk-standard"), PftkStandardFormula
        )
        # Underscores, case and the legacy "name" key are accepted.
        assert isinstance(
            api.FORMULAS.from_config({"kind": "PFTK_Standard"}),
            PftkStandardFormula,
        )
        assert isinstance(
            api.FORMULAS.from_config({"name": "sqrt", "rtt": 2.0}), SqrtFormula
        )

    def test_unknown_kind_raises_key_error(self):
        with pytest.raises(KeyError):
            api.FORMULAS.from_config({"kind": "cubic"})

    def test_unregistered_type_raises_type_error(self):
        class OddFormula(SqrtFormula):
            pass

        with pytest.raises(TypeError):
            api.FORMULAS.to_config(OddFormula(rtt=1.0))

    def test_missing_kind_raises_value_error(self):
        with pytest.raises(ValueError):
            api.LOSS_PROCESSES.from_config({"shift": 1.0, "rate": 0.1})

    def test_shifted_exponential_accepts_p_cv_form(self):
        process = api.LOSS_PROCESSES.from_config(
            {"kind": "shifted-exponential", "loss_event_rate": 0.1,
             "coefficient_of_variation": 0.8}
        )
        assert process == ShiftedExponentialIntervals.from_loss_rate_and_cv(
            0.1, 0.8
        )

    def test_scenario_builds_simulator_config(self):
        scenario = api.SCENARIOS.from_config(
            {"kind": "lab", "num_connections": 2, "queue_type": "red",
             "buffer_packets": None}
        )
        config = scenario.build(seed=5)
        assert config.num_tfrc == config.num_tcp == 2
        assert config.queue_type == "red"
        assert config.buffer_packets is None  # derived from the BDP
        assert config.seed == 5
        assert not config.tfrc_comprehensive  # lab runs disable it


# ----------------------------------------------------------------------
# Scenario families: the DumbbellConfig each one builds
# ----------------------------------------------------------------------
def _built(num_connections, capacity_mbps, rtt_seconds, queue_type,
           buffer_packets, history_length, tfrc_comprehensive, duration, warmup):
    """The DumbbellConfig fields of a paper family's build (no seed)."""
    return {
        "num_tfrc": num_connections, "num_tcp": num_connections,
        "num_poisson": 0, "num_cbr": 0, "capacity_mbps": capacity_mbps,
        "rtt_seconds": rtt_seconds, "queue_type": queue_type,
        "buffer_packets": buffer_packets, "red_min_fraction": 0.25,
        "red_max_fraction": 1.25, "history_length": history_length,
        "tfrc_comprehensive": tfrc_comprehensive, "probe_rate_fraction": 0.25,
        "duration": duration, "warmup": warmup, "packet_size": 1000,
        "formula": None,
    }


#: Each family and build branch -> the fields of its built DumbbellConfig.
SCENARIO_BUILDS = {
    "ns2": (
        {"kind": "ns2", "num_connections": 3, "history_length": 4,
         "duration": 60.0, "capacity_mbps": 2.0},
        _built(3, 2.0, 0.05, "red", None, 4, True, 60.0, 12.0),
    ),
    "lab-droptail-64": (
        {"kind": "lab", "num_connections": 2, "queue_type": "droptail",
         "buffer_packets": 64},
        _built(2, 1.0, 0.05, "droptail", 64, 8, False, 200.0, 20.0),
    ),
    "lab-droptail-100": (
        {"kind": "lab", "num_connections": 2, "queue_type": "droptail",
         "buffer_packets": 100},
        _built(2, 1.0, 0.05, "droptail", 100, 8, False, 200.0, 20.0),
    ),
    "lab-droptail-none": (
        {"kind": "lab", "num_connections": 2, "queue_type": "droptail",
         "buffer_packets": None},
        _built(2, 1.0, 0.05, "droptail", 100, 8, False, 200.0, 20.0),
    ),
    "lab-red-none": (
        {"kind": "lab", "num_connections": 2, "queue_type": "red",
         "buffer_packets": None},
        _built(2, 1.0, 0.05, "red", None, 8, False, 200.0, 20.0),
    ),
    **{
        f"internet-{path}": (
            {"kind": "internet", "path_name": path, "num_connections": 2},
            _built(2, 1.0, rtt, "droptail", None, 8, True, 200.0, 20.0),
        )
        for path, rtt in (("INRIA", 0.03), ("UMASS", 0.097), ("KTH", 0.046),
                          ("UMELB", 0.35))
    },
    "dumbbell-example": (
        api.SCENARIOS.to_config(api.SCENARIOS.examples()["dumbbell"]),
        {"num_tfrc": 2, "num_tcp": 1, "num_poisson": 0, "num_cbr": 0,
         "capacity_mbps": 1.5, "rtt_seconds": 0.05, "queue_type": "droptail",
         "buffer_packets": 50, "red_min_fraction": 0.25, "red_max_fraction": 1.25,
         "history_length": 8, "tfrc_comprehensive": True,
         "probe_rate_fraction": 0.25, "duration": 200.0, "warmup": 20.0,
         "packet_size": 1000, "formula": None},
    ),
}


class TestScenarioBuilds:
    @pytest.mark.parametrize("seed", [7, None])
    @pytest.mark.parametrize("case", sorted(SCENARIO_BUILDS))
    def test_family_builds_its_dumbbell_config(self, case, seed):
        config, expected = SCENARIO_BUILDS[case]
        built = api.SCENARIOS.from_config(config).build(seed)
        assert dataclasses.asdict(built) == {**expected, "seed": seed}

    def test_unknown_internet_path_raises_key_error(self):
        scenario = api.SCENARIOS.from_config(
            {"kind": "internet", "path_name": "NOWHERE", "num_connections": 2}
        )
        with pytest.raises(KeyError, match="unknown path 'NOWHERE'"):
            scenario.build(7)

    @pytest.mark.parametrize("queue_type", ["RED", " Red "])
    def test_lab_red_buffer_reads_queue_type_as_the_queue_builder_does(
        self, queue_type
    ):
        # "RED" used to get a fixed 100-packet RED queue, "red" the one
        # derived from the bandwidth-delay product.
        def built(spelling):
            return api.LabScenario(queue_type=spelling, buffer_packets=None).build(1)

        config = built(queue_type)
        assert dataclasses.replace(config, queue_type="red") == built("red")
        assert _build_queue(config).capacity_packets == 15

    @pytest.mark.parametrize("buffer_packets", [0, -5, 0.5, float("nan")])
    def test_lab_rejects_a_buffer_below_one_packet(self, buffer_packets):
        # A falsy buffer used to run silently as the 100-packet default.
        with pytest.raises(ValueError, match="buffer_packets"):
            api.LabScenario(buffer_packets=buffer_packets)
        spec = ExperimentSpec(
            name="lab-buffer", runner="dumbbell",
            grid={"scenario": [{"kind": "lab", "buffer_packets": buffer_packets,
                                "duration": 10.0}]},
            seed=1,
        )
        (result,) = ExperimentRunner(workers=1).run(spec).results
        assert result.status == "error"
        assert "buffer_packets must be None or at least 1" in result.error


# ----------------------------------------------------------------------
# Loss-process parameter domain
# ----------------------------------------------------------------------
#: (JSON config with one parameter left as ``%s``, the name its error
#: names), for every parameter of the kinds whose checks a nan or an
#: infinity used to pass.
NON_FINITE_LOSS_PROCESSES = {
    "shifted-exponential-shift": (
        '{"kind": "shifted-exponential", "shift": %s, "rate": 0.1}', "shift"),
    "shifted-exponential-rate": (
        '{"kind": "shifted-exponential", "shift": 1.0, "rate": %s}', "rate"),
    "deterministic": ('{"kind": "deterministic", "value": %s}', "value"),
    "gamma-mean": ('{"kind": "gamma", "mean": %s, "cv": 1.5}', "mean"),
    "gamma-cv": ('{"kind": "gamma", "mean": 20.0, "cv": %s}', "cv"),
    "lognormal-mean": ('{"kind": "lognormal", "mean": %s, "cv": 0.7}', "mean"),
    "lognormal-cv": ('{"kind": "lognormal", "mean": 10.0, "cv": %s}', "cv"),
    "empirical": (
        '{"kind": "empirical", "observations": [3.0, %s, 5.0]}',
        "observations"),
    "markov-modulated": (
        '{"kind": "markov-modulated", "transition_matrix": [[0.9, 0.1], '
        '[0.2, 0.8]], "phase_means": [50.0, %s]}', "phase_means"),
    "two-phase-good": (
        '{"kind": "two-phase", "good_mean": %s, "bad_mean": 4.0, '
        '"switch_probability": 0.1}', "phase_means"),
    "two-phase-bad": (
        '{"kind": "two-phase", "good_mean": 60.0, "bad_mean": %s, '
        '"switch_probability": 0.1}', "phase_means"),
    "trace": ('{"kind": "trace", "intervals": [4.0, %s, 6.0]}', "intervals"),
}


class TestLossProcessDomain:
    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_LOSS_PROCESSES))
    def test_non_finite_parameter_is_rejected(self, case, token):
        # json.loads reads NaN, Infinity and 1e999; each used to build a
        # process that failed, or ran to nan, inside the compute.
        template, name = NON_FINITE_LOSS_PROCESSES[case]
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            api.LOSS_PROCESSES.from_config(json.loads(template % token))

    def test_huge_cv_is_rejected_where_its_square_overflows(self):
        # A finite cv whose derived parameters are not (gamma's scale
        # mean*cv**2, lognormal's cv**2) used to construct, then raise
        # OverflowError or fail on an infinite scale inside the compute.
        for kind, cv in (("gamma", 1e154), ("gamma", 1e200), ("lognormal", 1e200)):
            with pytest.raises(ValueError, match="cv must give a finite"):
                api.LOSS_PROCESSES.from_config({"kind": kind, "mean": 10.0, "cv": cv})
        process = api.LOSS_PROCESSES.from_config(
            {"kind": "lognormal", "mean": 10.0, "cv": 1e154})
        result = api.simulate(api.SimConfig(
            formula="sqrt", loss_process=process, num_events=100, seed=1))
        assert 0.0 < result.normalized_throughput < 1.0


# ----------------------------------------------------------------------
# Weight profiles
# ----------------------------------------------------------------------
class TestWeightProfiles:
    def test_tfrc_profile_matches_helper(self):
        profile = api.WEIGHT_PROFILES.from_config(
            {"kind": "tfrc", "history_length": 8}
        )
        assert np.allclose(profile.weights(), tfrc_weights(8))

    def test_uniform_profile_matches_helper(self):
        profile = api.WEIGHT_PROFILES.from_config(
            {"kind": "uniform", "history_length": 5}
        )
        assert np.allclose(profile.weights(), uniform_weights(5))

    def test_custom_profile_normalises(self):
        profile = api.WEIGHT_PROFILES.from_config(
            {"kind": "custom", "raw_weights": [4.0, 2.0, 2.0]}
        )
        assert np.allclose(profile.weights(), [0.5, 0.25, 0.25])
        assert profile.history_length == 3

    def test_custom_profile_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            api.WEIGHT_PROFILES.from_config(
                {"kind": "custom", "raw_weights": [1.0, -1.0]}
            )


class TestHistoryLengthIsAnInteger:
    """A window length is an integer wherever it enters: the profile
    config, SimConfig's shorthand, the batch axis and the weight helpers
    share one check, which rejects rather than truncates."""

    BAD = [4.5, 4.0, "4", True]
    POINT = dict(formula="sqrt", loss_event_rate=0.1, num_events=100, seed=1)

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_profiles_and_helpers_reject_it(self, value):
        for kind in ("tfrc", "uniform"):
            with pytest.raises(ValueError, match="must be an integer"):
                api.WEIGHT_PROFILES.from_config(
                    {"kind": kind, "history_length": value})
        for helper in (tfrc_weights, uniform_weights):
            with pytest.raises(ValueError, match="must be an integer"):
                helper(value)

    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_simulate_and_batch_reject_it(self, value):
        with pytest.raises(ValueError, match="must be an integer"):
            api.simulate(api.SimConfig(history_length=value, **self.POINT))
        with pytest.raises(ValueError, match="must be an integer"):
            api.simulate_batch(api.BatchConfig(
                formulas=["sqrt"], loss_event_rates=[0.1],
                coefficients_of_variation=[0.9], history_lengths=[value],
                num_events=100, seed=1))

    def test_a_custom_profile_axis_is_checked_too(self):
        config = api.BatchConfig(
            formulas=["sqrt"], loss_event_rates=[0.1],
            coefficients_of_variation=[0.9], history_lengths=[2.0],
            profile={"kind": "custom", "raw_weights": [1.0, 1.0]},
            num_events=100, seed=1)
        with pytest.raises(ValueError, match="must be an integer"):
            api.simulate_batch(config)

    def test_numpy_integers_still_run(self):
        direct = api.simulate(api.SimConfig(history_length=4, **self.POINT))
        numpy_length = api.simulate(
            api.SimConfig(history_length=np.int64(4), **self.POINT))
        assert numpy_length == direct
        profile = api.WEIGHT_PROFILES.from_config(
            {"kind": "tfrc", "history_length": np.int64(4)})
        assert type(profile.history_length) is int


# ----------------------------------------------------------------------
# make_rng passthrough (shared streams)
# ----------------------------------------------------------------------
class TestMakeRng:
    def test_existing_generator_is_passed_through(self):
        generator = np.random.default_rng(3)
        assert make_rng(generator) is generator

    def test_seed_and_none_still_work(self):
        assert isinstance(make_rng(5), np.random.Generator)
        assert isinstance(make_rng(None), np.random.Generator)
        assert make_rng(5) is not make_rng(5)

    def test_components_can_share_one_stream(self):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.9)
        shared = make_rng(11)
        first = process.sample_intervals(100, make_rng(shared))
        second = process.sample_intervals(100, make_rng(shared))
        # The stream advanced instead of being re-seeded.
        assert not np.allclose(first, second)


# ----------------------------------------------------------------------
# Vectorised kernel vs loop controls
# ----------------------------------------------------------------------
class TestVectorizedKernel:
    @pytest.fixture(scope="class")
    def intervals(self):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.15, 0.95)
        return process.sample_intervals(2_000 + 8, make_rng(7))

    @pytest.mark.parametrize("comprehensive", [False, True])
    @pytest.mark.parametrize(
        "formula",
        [SqrtFormula(rtt=1.0), PftkSimplifiedFormula(rtt=1.0),
         PftkStandardFormula(rtt=1.0)],
        ids=["sqrt", "pftk-simplified", "pftk-standard"],
    )
    def test_trace_matches_loop_implementation(
        self, intervals, formula, comprehensive
    ):
        weights = tfrc_weights(8)
        control_cls = ComprehensiveControl if comprehensive else BasicControl
        loop_trace = control_cls(formula, weights=weights).run(intervals)
        vector_trace = vectorized_control_trace(
            formula, intervals, weights, comprehensive=comprehensive
        )
        for attribute in ("intervals", "estimates", "rates", "durations"):
            assert np.allclose(
                getattr(loop_trace, attribute),
                getattr(vector_trace, attribute),
                rtol=1e-9, atol=1e-12,
            )

    def test_row_summaries_match_single_runs(self, intervals):
        formula = PftkSimplifiedFormula(rtt=1.0)
        weights = tfrc_weights(8)
        other = ShiftedExponentialIntervals.from_loss_rate_and_cv(
            0.05, 0.8
        ).sample_intervals(2_000 + 8, make_rng(9))
        matrix = np.vstack([intervals, other])
        kept, estimates, candidates = sliding_estimates(matrix, weights)
        _, durations = evaluate_control_arrays(
            formula, kept, estimates, candidates, float(weights[0])
        )
        summaries = summarize_rows(formula, kept, estimates, durations)
        for row, sequence in enumerate((intervals, other)):
            trace = BasicControl(formula, weights=weights).run(sequence)
            assert np.isclose(
                summaries["throughput"][row], trace.throughput, rtol=1e-9
            )
            assert np.isclose(
                summaries["normalized_throughput"][row],
                trace.normalized_throughput(formula),
                rtol=1e-9,
            )
            assert np.isclose(
                summaries["interval_estimate_covariance"][row],
                trace.interval_estimate_covariance(),
                rtol=1e-9,
            )


# ----------------------------------------------------------------------
# The simulate() facade
# ----------------------------------------------------------------------
class TestSimulateFacade:
    @pytest.mark.parametrize("control", ["basic", "comprehensive"])
    def test_montecarlo_matches_direct_kernel_call(self, control):
        """simulate() is the seeded draw of num_events + L intervals run
        through the three kernel passes, bit for bit, and so is the
        throughput of vectorized_control_trace over that draw (the
        quickstart's theorem report); the two delegates kept in
        repro.api.simulate return simulate()'s result."""
        # The package re-exports the function under the module's name.
        facade = importlib.import_module("repro.api.simulate")
        formula = PftkSimplifiedFormula(rtt=1.0)
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.9)
        weights = tfrc_weights(8)
        intervals = process.sample_intervals(2_000 + 8, make_rng(13))
        kept, estimates, candidates = sliding_estimates(intervals, weights)
        _, durations = evaluate_control_arrays(
            formula, kept, estimates, candidates, float(weights[0]),
            comprehensive=control == "comprehensive",
        )
        direct = summarize_rows(formula, kept, estimates, durations)
        fields = dict(
            formula={"kind": "pftk-simplified", "rtt": 1.0},
            loss_event_rate=0.1, coefficient_of_variation=0.9,
            history_length=8, num_events=2_000, seed=13,
        )
        via_api = api.simulate(api.SimConfig(control=control, **fields))
        assert via_api.normalized_throughput == direct["normalized_throughput"]
        assert via_api.throughput == direct["throughput"]
        assert via_api.empirical_loss_event_rate == direct["loss_event_rate"]
        assert via_api.interval_estimate_covariance == (
            direct["interval_estimate_covariance"])
        assert via_api.estimator_cv == direct["estimator_cv"]
        trace = vectorized_control_trace(
            formula, intervals, weights, comprehensive=control == "comprehensive"
        )
        assert trace.throughput == via_api.throughput
        delegate = getattr(facade, f"simulate_{control}_control")
        assert delegate(**fields) == via_api

    def test_analytic_dispatch_agrees_with_montecarlo(self):
        base = dict(formula="pftk-simplified", loss_event_rate=0.1,
                    coefficient_of_variation=0.9, history_length=8, seed=3)
        montecarlo = api.simulate(api.SimConfig(
            num_events=40_000, method="montecarlo", **base))
        analytic = api.simulate(api.SimConfig(
            num_events=40_000, method="analytic", **base))
        assert analytic.method == "analytic"
        assert np.isnan(analytic.interval_estimate_covariance)
        assert np.isclose(
            montecarlo.normalized_throughput,
            analytic.normalized_throughput,
            atol=0.03,
        )

    def test_analytic_rejects_correlated_processes(self):
        for config in (
            {"kind": "two-phase", "good_mean": 40.0, "bad_mean": 8.0,
             "switch_probability": 0.2},
            {"kind": "gilbert", "good_to_bad": 0.05, "bad_to_good": 0.4},
            {"kind": "trace", "intervals": [4.0, 9.0, 6.0]},
        ):
            with pytest.raises(ValueError, match="i.i.d."):
                api.simulate(api.SimConfig(
                    formula="sqrt", method="analytic", loss_process=config,
                    num_events=200, seed=1))

    def test_registered_loss_process_and_profile_configs(self):
        result = api.simulate(api.SimConfig(
            formula="sqrt",
            loss_process={"kind": "two-phase", "good_mean": 40.0,
                          "bad_mean": 8.0, "switch_probability": 0.2},
            profile={"kind": "uniform", "history_length": 4},
            num_events=1_000, seed=5,
        ))
        assert result.history_length == 4
        assert 0.0 < result.normalized_throughput < 1.5
        assert np.isclose(result.loss_event_rate, 1.0 / 24.0)

    def test_comprehensive_not_below_basic(self):
        base = dict(formula="pftk-simplified", loss_event_rate=0.2,
                    coefficient_of_variation=0.9, history_length=8,
                    num_events=5_000, seed=17)
        basic = api.simulate(api.SimConfig(control="basic", **base))
        comprehensive = api.simulate(
            api.SimConfig(control="comprehensive", **base))
        assert comprehensive.throughput >= basic.throughput

    def test_sim_config_json_round_trip(self):
        config = api.SimConfig(
            formula={"kind": "sqrt", "rtt": 0.5},
            loss_process={"kind": "gilbert", "good_to_bad": 0.05,
                          "bad_to_good": 0.4},
            profile={"kind": "tfrc", "history_length": 4},
            control="comprehensive", num_events=500, seed=2,
        )
        payload = json.loads(json.dumps(config.to_dict()))
        rebuilt = api.SimConfig.from_dict(payload)
        assert rebuilt == config

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            api.SimConfig(formula="sqrt")  # no loss model at all
        with pytest.raises(ValueError):
            api.SimConfig(formula="sqrt", loss_event_rate=0.1,
                          loss_process={"kind": "deterministic", "value": 5.0})
        with pytest.raises(ValueError):
            api.SimConfig(formula="sqrt", loss_event_rate=0.1,
                          profile="tfrc", history_length=8)
        with pytest.raises(ValueError):
            # cv only parameterises the default shifted exponential.
            api.SimConfig(formula="sqrt", coefficient_of_variation=0.9,
                          loss_process={"kind": "deterministic", "value": 5.0})
        with pytest.raises(ValueError):
            api.SimConfig(formula="sqrt", loss_event_rate=0.1, control="wild")

    def test_result_is_json_safe(self):
        result = api.simulate(api.SimConfig(
            formula="sqrt", loss_event_rate=0.1, history_length=2,
            num_events=200, seed=1))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["control"] == "basic"
        assert payload["formula"]["kind"] == "sqrt"
        assert payload["loss_process"]["kind"] == "shifted-exponential"


# ----------------------------------------------------------------------
# Batch mode
# ----------------------------------------------------------------------
class TestSimulateBatch:
    @pytest.mark.parametrize("control", ["basic", "comprehensive"])
    def test_batch_equals_scalar_point_for_point(self, control):
        batch_config = api.BatchConfig(
            formulas=["sqrt", "pftk-simplified"],
            loss_event_rates=[0.05, 0.2],
            coefficients_of_variation=[0.9],
            history_lengths=[2, 8],
            control=control,
            num_events=1_000,
            seed=11,
            share_noise=False,
        )
        batch = api.simulate_batch(batch_config)
        assert len(batch) == 8
        for result in batch.results:
            scalar = api.simulate(api.SimConfig(
                formula=result.formula,
                loss_event_rate=result.loss_event_rate,
                coefficient_of_variation=result.coefficient_of_variation,
                history_length=result.history_length,
                control=control,
                num_events=result.num_events,
                seed=batch_config.point_seed(
                    history_length=result.history_length,
                    loss_event_rate=result.loss_event_rate,
                    coefficient_of_variation=result.coefficient_of_variation,
                ),
            ))
            assert np.isclose(
                result.normalized_throughput,
                scalar.normalized_throughput,
                rtol=1e-9,
            )
            assert np.isclose(result.throughput, scalar.throughput, rtol=1e-9)

    def test_shared_noise_close_to_independent(self):
        common = dict(
            formulas=["pftk-simplified"],
            loss_event_rates=[0.1],
            coefficients_of_variation=[0.9],
            history_lengths=[8],
            num_events=20_000,
            seed=11,
        )
        shared = api.simulate_batch(api.BatchConfig(share_noise=True, **common))
        independent = api.simulate_batch(
            api.BatchConfig(share_noise=False, **common))
        assert np.isclose(
            shared.results[0].normalized_throughput,
            independent.results[0].normalized_throughput,
            atol=0.04,
        )

    def test_loss_process_batch_reproduces_campaign(self):
        from repro.experiments import preset

        spec = preset("fig3-markov")
        spec.base["num_events"] = 300
        campaign = ExperimentRunner().run(spec)
        campaign.raise_errors()
        batch = api.simulate_batch(api.BatchConfig(
            formulas=[spec.base["formula"]],
            loss_processes=list(spec.grid["loss_process"]),
            history_lengths=[int(l) for l in spec.grid["history_length"]],
            num_events=300,
            seed=spec.seed,
            share_noise=False,
        ))
        campaign_values = {
            (row["history_length"], round(row["loss_event_rate"], 9)):
                row["normalized_throughput"]
            for row in campaign.values()
        }
        assert len(batch) == len(campaign_values)
        for result in batch.results:
            key = (result.history_length, round(result.loss_event_rate, 9))
            assert np.isclose(
                result.normalized_throughput, campaign_values[key], rtol=1e-9
            )

    def test_loss_process_grid(self):
        batch = api.simulate_batch(api.BatchConfig(
            formulas=["sqrt"],
            loss_processes=[
                {"kind": "two-phase", "good_mean": 40.0, "bad_mean": 8.0,
                 "switch_probability": 0.2},
                {"kind": "deterministic", "value": 10.0},
            ],
            history_lengths=[4],
            num_events=500,
            seed=3,
        ))
        assert len(batch) == 2
        deterministic = batch.one(loss_event_rate=0.1)
        # A constant interval has zero estimator variance: the control
        # tracks f exactly.
        assert np.isclose(deterministic.normalized_throughput, 1.0, atol=1e-6)

    def test_select_and_one(self):
        batch = api.simulate_batch(api.BatchConfig(
            formulas=["sqrt", "pftk-simplified"],
            loss_event_rates=[0.1],
            coefficients_of_variation=[0.9],
            history_lengths=[2, 8],
            num_events=500,
            seed=4,
        ))
        assert len(batch.select(formula="sqrt")) == 2
        single = batch.one(formula="sqrt", history_length=8)
        assert single.history_length == 8
        with pytest.raises(KeyError):
            batch.one(formula="sqrt")

    def test_batch_config_json_round_trip(self):
        config = api.BatchConfig(
            formulas=[{"kind": "sqrt", "rtt": 1.0}],
            loss_event_rates=[0.1, 0.2],
            coefficients_of_variation=[0.9],
            history_lengths=[2],
            num_events=500, seed=1,
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert api.BatchConfig.from_dict(payload) == config

    def test_batch_config_validation(self):
        with pytest.raises(ValueError):
            api.BatchConfig(formulas=["sqrt"], history_lengths=[8])
        with pytest.raises(ValueError):
            api.BatchConfig(
                formulas=["sqrt"], history_lengths=[8],
                loss_event_rates=[0.1],
                coefficients_of_variation=[0.9],
                loss_processes=[{"kind": "deterministic", "value": 5.0}],
            )

    def test_batch_accepts_custom_weight_profile(self):
        config = api.BatchConfig(
            formulas=["sqrt"],
            loss_event_rates=[0.1],
            coefficients_of_variation=[0.9],
            history_lengths=[3],
            profile={"kind": "custom", "raw_weights": [4.0, 2.0, 1.0]},
            num_events=500, seed=6,
        )
        batch = api.simulate_batch(config)
        assert batch.results[0].history_length == 3
        # A fixed-length profile must match the grid's window axis.
        with pytest.raises(ValueError, match="does not match"):
            api.simulate_batch(api.BatchConfig(
                formulas=["sqrt"],
                loss_event_rates=[0.1],
                coefficients_of_variation=[0.9],
                history_lengths=[8],
                profile={"kind": "custom", "raw_weights": [4.0, 2.0, 1.0]},
                num_events=500, seed=6,
            ))


# ----------------------------------------------------------------------
# Campaigns from pure JSON (the "new scenario = new config dict" claim)
# ----------------------------------------------------------------------
class TestJsonCampaigns:
    def test_gilbert_fig3_spec_runs_from_json_file(self):
        from pathlib import Path

        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples" / "specs" / "fig3_gilbert.json"
        )
        spec = ExperimentSpec.from_json(spec_path.read_text(encoding="utf-8"))
        spec.base["num_events"] = 300  # keep the unit test fast
        campaign = ExperimentRunner().run(spec)
        campaign.raise_errors()
        assert campaign.num_points == 6
        for result in campaign.results:
            assert result.value["normalized_throughput"] > 0.0
            # The Gilbert model's loss-event rate is reported from the
            # stationary per-packet loss probability.
            assert 0.01 < result.value["loss_event_rate"] < 0.25

    def test_montecarlo_runner_accepts_profile_config(self):
        spec = ExperimentSpec(
            name="uniform-profile",
            runner="montecarlo-basic",
            base={
                "formula": {"kind": "sqrt", "rtt": 1.0},
                "loss_event_rate": 0.1,
                "coefficient_of_variation": 0.9,
                "num_events": 500,
                "profile": {"kind": "uniform", "history_length": 4},
            },
            seed=9,
        )
        campaign = ExperimentRunner().run(spec)
        campaign.raise_errors()
        assert campaign.results[0].value["history_length"] == 4


# ----------------------------------------------------------------------
# Analytic batch mode (Proposition 1/3 vectorised kernels)
# ----------------------------------------------------------------------
IID_PROCESS_KINDS = sorted(
    kind
    for kind, example in api.LOSS_PROCESSES.examples().items()
    if getattr(example, "is_iid", False)
)


class TestAnalyticBatch:
    def test_every_iid_kind_is_covered(self):
        # The parametrised equivalence below must span every registered
        # i.i.d. loss process; a newly registered kind lands here.
        assert IID_PROCESS_KINDS == [
            "deterministic", "empirical", "gamma", "geometric", "lognormal",
            "shifted-exponential",
        ]

    @pytest.mark.parametrize("kind", IID_PROCESS_KINDS)
    @pytest.mark.parametrize("control", ["basic", "comprehensive"])
    def test_batch_equals_scalar_for_every_iid_process(self, kind, control):
        process_config = api.LOSS_PROCESSES.to_config(
            api.LOSS_PROCESSES.examples()[kind]
        )
        batch_config = api.BatchConfig(
            formulas=["sqrt", "pftk-simplified"],
            loss_processes=[process_config],
            history_lengths=[2, 8],
            control=control,
            method="analytic",
            num_events=600,
            seed=29,
            share_noise=False,
        )
        batch = api.simulate_batch(batch_config)
        assert len(batch) == 4
        for result in batch.results:
            assert result.method == "analytic"
            assert np.isnan(result.empirical_loss_event_rate)
            scalar = api.simulate(api.SimConfig(
                formula=result.formula,
                loss_process=process_config,
                history_length=result.history_length,
                control=control,
                method="analytic",
                num_events=result.num_events,
                seed=batch_config.point_seed(
                    history_length=result.history_length,
                    loss_process=process_config,
                ),
            ))
            assert np.isclose(
                result.throughput, scalar.throughput, rtol=1e-9
            )
            assert np.isclose(
                result.normalized_throughput,
                scalar.normalized_throughput,
                rtol=1e-9,
            )

    @pytest.mark.parametrize("control", ["basic", "comprehensive"])
    def test_rate_cv_grid_equals_scalar(self, control):
        batch_config = api.BatchConfig(
            formulas=["pftk-simplified"],
            loss_event_rates=[0.05, 0.2],
            coefficients_of_variation=[0.9],
            history_lengths=[1, 8],
            control=control,
            method="analytic",
            num_events=800,
            seed=37,
            share_noise=False,
        )
        batch = api.simulate_batch(batch_config)
        for result in batch.results:
            scalar = api.simulate(api.SimConfig(
                formula=result.formula,
                loss_event_rate=result.loss_event_rate,
                coefficient_of_variation=result.coefficient_of_variation,
                history_length=result.history_length,
                control=control,
                method="analytic",
                num_events=result.num_events,
                seed=batch_config.point_seed(
                    history_length=result.history_length,
                    loss_event_rate=result.loss_event_rate,
                    coefficient_of_variation=result.coefficient_of_variation,
                ),
            ))
            assert np.isclose(
                result.normalized_throughput,
                scalar.normalized_throughput,
                rtol=1e-9,
            )

    def test_analytic_agrees_with_montecarlo_on_fig3_grid(self):
        """Analytic (shared fast path) and Monte-Carlo batch estimates of
        the same fig3-style grid agree within a Monte-Carlo band."""
        common = dict(
            formulas=["pftk-simplified"],
            loss_event_rates=[0.05, 0.2],
            coefficients_of_variation=[0.999],
            history_lengths=[4, 8, 16],
            num_events=30_000,
            seed=41,
        )
        analytic = api.simulate_batch(
            api.BatchConfig(method="analytic", **common))
        montecarlo = api.simulate_batch(
            api.BatchConfig(method="montecarlo", **common))
        assert len(analytic) == len(montecarlo) == 6
        for a, m in zip(analytic.results, montecarlo.results):
            assert (a.history_length, a.loss_event_rate) == (
                m.history_length, m.loss_event_rate)
            assert np.isclose(
                a.normalized_throughput, m.normalized_throughput, atol=0.05
            ), (a.history_length, a.loss_event_rate,
                a.normalized_throughput, m.normalized_throughput)

    def test_shared_path_close_to_matched_path(self):
        common = dict(
            formulas=["pftk-simplified"],
            loss_event_rates=[0.1],
            coefficients_of_variation=[0.9],
            history_lengths=[8],
            method="analytic",
            num_events=30_000,
            seed=43,
        )
        shared = api.simulate_batch(api.BatchConfig(share_noise=True, **common))
        matched = api.simulate_batch(
            api.BatchConfig(share_noise=False, **common))
        assert np.isclose(
            shared.results[0].normalized_throughput,
            matched.results[0].normalized_throughput,
            atol=0.04,
        )

    def test_comprehensive_not_below_basic_in_batch(self):
        common = dict(
            formulas=["pftk-simplified"],
            loss_event_rates=[0.2],
            coefficients_of_variation=[0.9],
            history_lengths=[8],
            method="analytic",
            num_events=20_000,
            seed=47,
        )
        basic = api.simulate_batch(api.BatchConfig(control="basic", **common))
        comprehensive = api.simulate_batch(
            api.BatchConfig(control="comprehensive", **common))
        assert (comprehensive.results[0].throughput
                >= basic.results[0].throughput)

    def test_correlated_process_rejected(self):
        with pytest.raises(ValueError, match="i.i.d."):
            api.simulate_batch(api.BatchConfig(
                formulas=["sqrt"],
                loss_processes=[{"kind": "two-phase", "good_mean": 40.0,
                                 "bad_mean": 8.0, "switch_probability": 0.2}],
                history_lengths=[4],
                method="analytic",
                num_events=500,
                seed=1,
            ))

    def test_comprehensive_analytic_serves_every_formula(self):
        # Per-point noise: both controls integrate over the same draws,
        # so Proposition 3 can only add throughput to Proposition 1
        # (V >= 0 sample by sample), whatever the formula.
        common = dict(
            formulas=sorted(api.FORMULAS.kinds()),
            loss_event_rates=[0.1],
            coefficients_of_variation=[0.9],
            history_lengths=[4],
            method="analytic",
            num_events=500,
            seed=1,
            share_noise=False,
        )
        basic = api.simulate_batch(api.BatchConfig(control="basic", **common))
        comprehensive = api.simulate_batch(
            api.BatchConfig(control="comprehensive", **common))
        assert len(comprehensive) == len(common["formulas"])
        for lower, upper in zip(basic.results, comprehensive.results):
            assert upper.formula == lower.formula
            assert np.isfinite(upper.throughput)
            assert upper.throughput > lower.throughput

    def test_method_round_trips_and_validates(self):
        config = api.BatchConfig(
            formulas=["sqrt"],
            loss_event_rates=[0.1],
            coefficients_of_variation=[0.9],
            history_lengths=[2],
            method="analytic",
            num_events=500,
            seed=1,
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert api.BatchConfig.from_dict(payload) == config
        with pytest.raises(ValueError, match="method"):
            api.BatchConfig(
                formulas=["sqrt"],
                loss_event_rates=[0.1],
                coefficients_of_variation=[0.9],
                history_lengths=[2],
                method="quadrature",
            )
        # The scalar analytic entry points reject num_samples < 100; the
        # batch enforces the same floor rather than silently accepting
        # grids its scalar equivalent would fail on.
        with pytest.raises(ValueError, match="at least 100"):
            api.BatchConfig(
                formulas=["sqrt"],
                loss_event_rates=[0.1],
                coefficients_of_variation=[0.9],
                history_lengths=[2],
                method="analytic",
                num_events=50,
            )


# ----------------------------------------------------------------------
# The i.i.d. guard must reject processes that never declare the flag
# ----------------------------------------------------------------------
class _GuardlessProcess:
    """Duck-typed loss process with no ``is_iid`` declaration at all.

    Registered as a *virtual* LossProcess subclass: it passes the
    registry's isinstance pass-through without inheriting any class
    attribute, which is exactly the case the guard's default covers.
    """

    mean_interval = 25.0
    loss_event_rate = 1.0 / 25.0

    def sample_intervals(self, count, rng):
        return rng.exponential(self.mean_interval, size=count)


class TestIidGuardDefault:
    def test_guardless_process_is_rejected_by_analytic(self):
        from repro.lossprocess.base import LossProcess

        LossProcess.register(_GuardlessProcess)
        process = _GuardlessProcess()
        assert not hasattr(process, "is_iid")
        with pytest.raises(ValueError, match="i.i.d."):
            api.simulate(api.SimConfig(
                formula="sqrt", loss_process=process, method="analytic",
                num_events=200, seed=1))
        with pytest.raises(ValueError, match="i.i.d."):
            api.simulate_batch(api.BatchConfig(
                formulas=["sqrt"], loss_processes=[process],
                history_lengths=[2], method="analytic",
                num_events=200, seed=1))

    def test_guardless_process_still_runs_montecarlo(self):
        from repro.lossprocess.base import LossProcess

        LossProcess.register(_GuardlessProcess)
        result = api.simulate(api.SimConfig(
            formula="sqrt", loss_process=_GuardlessProcess(),
            num_events=300, seed=1))
        assert result.throughput > 0.0


# ----------------------------------------------------------------------
# The vectorised analytic kernel helpers
# ----------------------------------------------------------------------
class TestVectorizedAnalyticKernel:
    @pytest.mark.parametrize("kind", sorted(api.FORMULAS.kinds()))
    def test_inverse_rate_matches_generic_form(self, kind):
        # Every registered formula's g -- a closed form where the formula
        # has one -- against the generic 1 / f(1/x).
        formula = api.FORMULAS.examples()[kind]
        x = np.geomspace(0.5, 400.0, 64)
        fast = formula.g(x)
        generic = 1.0 / np.asarray(formula.rate_of_interval(x), dtype=float)
        assert np.allclose(fast, generic, rtol=1e-12, atol=0.0)

    def test_stratified_representatives_preserve_means(self):
        from repro.montecarlo import stratified_representatives

        sample = np.random.default_rng(5).exponential(2.0, size=10_001)
        representatives, probabilities = stratified_representatives(
            sample, num_strata=500)
        assert representatives.size == 500
        assert np.isclose(probabilities.sum(), 1.0)
        # The stratified mean of the identity is the exact sample mean.
        assert np.isclose(
            representatives @ probabilities, sample.mean(), rtol=1e-12)
        # And for a smooth integrand it tracks the full sample closely.
        g = np.sqrt
        assert np.isclose(
            g(representatives) @ probabilities, g(sample).mean(), rtol=1e-4)
