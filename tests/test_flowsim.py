"""Tests for the flow-level simulator (repro.flowsim).

Covers seed determinism of whole runs, the JSONL export round-trip, generator
validation and behaviour, agreement between the sampled mean flow rate
and the formula's steady-state prediction, and the ``flowsim-scale``
campaign preset's acceptance criteria (10k concurrent flows, 100
simulated seconds, seconds of wall-clock).  The discrete-event core is
the shared event loop; its contract is in ``test_engine_contract.py``.
"""

import time

import numpy as np
import pytest

from repro import api
from repro.experiments import ExperimentRunner, preset
from repro.flowsim import (
    FixedPopulationGenerator,
    FlowRecord,
    FlowSimConfig,
    Flowlet,
    OnOffGenerator,
    PoissonArrivalsGenerator,
    read_flow_records,
    read_flowlets,
    run_flowsim,
    write_flow_records,
    write_flowlets,
)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestFlowSimConfig:
    def test_requires_a_loss_description(self):
        with pytest.raises(ValueError, match="loss_process"):
            FlowSimConfig(formula="sqrt")

    def test_rejects_both_loss_descriptions(self):
        with pytest.raises(ValueError):
            FlowSimConfig(
                formula="sqrt",
                loss_event_rate=0.1,
                loss_process={"kind": "deterministic", "value": 10.0},
            )

    def test_rejects_cv_with_explicit_process(self):
        with pytest.raises(ValueError):
            FlowSimConfig(
                formula="sqrt",
                loss_process={"kind": "deterministic", "value": 10.0},
                coefficient_of_variation=0.5,
            )

    @pytest.mark.parametrize("point", [
        {},
        {"loss_event_rate": 0.1,
         "loss_process": {"kind": "deterministic", "value": 10.0}},
        {"loss_process": {"kind": "deterministic", "value": 10.0},
         "coefficient_of_variation": 0.5},
        {"loss_event_rate": 0.1, "profile": "uniform", "history_length": 4},
        {"loss_event_rate": 0.1, "seed": -1},
        {"loss_event_rate": 0.1, "seed": 1.5},
        {"loss_event_rate": 0.1, "seed": True},
        {"loss_event_rate": 0.1, "seed": "3"},
    ])
    def test_point_rules_and_messages_are_simconfigs(self, point):
        # The four seeds used to be accepted: True ran as seed 1, the
        # others failed only inside numpy.
        with pytest.raises(ValueError) as expected:
            api.SimConfig(formula="sqrt", **point)
        with pytest.raises(ValueError) as flowsim:
            FlowSimConfig(formula="sqrt", **point)
        assert str(flowsim.value) == str(expected.value)

    def test_resolves_its_point_as_simconfig_does(self):
        point = {"formula": {"kind": "pftk-simplified", "rtt": 0.2},
                 "loss_event_rate": 0.05, "coefficient_of_variation": 0.6,
                 "history_length": 4}
        config, expected = FlowSimConfig(**point), api.SimConfig(**point)
        assert config.resolve_formula() == expected.resolve_formula()
        assert config.resolve_loss_process() == expected.resolve_loss_process()
        assert config.resolve_profile() == expected.resolve_profile()

    def test_rejects_unknown_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            FlowSimConfig(
                formula="sqrt", loss_event_rate=0.1, sampling="bogus"
            )

    def test_config_dict_round_trip(self):
        config = FlowSimConfig(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "fixed-population", "num_flows": 7},
            loss_event_rate=0.1,
            coefficient_of_variation=0.6,
            history_length=8,
            duration=5.0,
            seed=3,
        )
        rebuilt = FlowSimConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()


# ----------------------------------------------------------------------
# Generator family
# ----------------------------------------------------------------------
class TestGenerators:
    def test_fixed_population_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            FixedPopulationGenerator(num_flows=0)

    def test_poisson_requires_exactly_one_bound(self):
        with pytest.raises(ValueError):
            PoissonArrivalsGenerator(arrival_rate=1.0)
        with pytest.raises(ValueError):
            PoissonArrivalsGenerator(
                arrival_rate=1.0, mean_size=10.0, mean_duration=5.0
            )

    def test_on_off_rejects_non_positive_periods(self):
        with pytest.raises(ValueError):
            OnOffGenerator(mean_on=0.0)
        with pytest.raises(ValueError):
            OnOffGenerator(mean_off=-1.0)

    def test_generator_registry_round_trip(self):
        generator = PoissonArrivalsGenerator(
            arrival_rate=2.0, mean_duration=5.0
        )
        config = api.GENERATORS.to_config(generator)
        assert config["kind"] == "poisson-arrivals"
        assert api.GENERATORS.from_config(config) == generator

    def test_poisson_duration_flows_complete(self):
        result = run_flowsim(
            formula="sqrt",
            generator={
                "kind": "poisson-arrivals",
                "arrival_rate": 2.0,
                "mean_duration": 3.0,
            },
            loss_event_rate=0.1,
            duration=50.0,
            seed=11,
        )
        assert result.num_flows > 0
        assert result.num_completed > 0
        completed = [r for r in result.records if r.completed]
        assert completed
        # Generator-closed flows end strictly inside the horizon.
        assert all(r.end_time <= 50.0 for r in completed)

    def test_poisson_size_flows_stop_at_their_limit(self):
        result = run_flowsim(
            formula={"kind": "sqrt", "rtt": 0.5},
            generator={
                "kind": "poisson-arrivals",
                "arrival_rate": 1.0,
                "mean_size": 30.0,
            },
            loss_event_rate=0.1,
            duration=60.0,
            sampling="mean",
            seed=5,
        )
        finished = [r for r in result.records if r.completed]
        assert finished
        for record in finished:
            assert record.size is not None
            assert record.packets_sent >= record.size

    def test_on_off_emits_one_record_per_burst(self):
        result = run_flowsim(
            formula="sqrt",
            generator={
                "kind": "on-off",
                "num_flows": 5,
                "mean_on": 4.0,
                "mean_off": 4.0,
            },
            loss_event_rate=0.1,
            duration=80.0,
            seed=23,
        )
        # Sources cycle, so far more bursts (flow ids) than sources.
        assert result.num_flows > 5
        assert result.num_completed > 0


# ----------------------------------------------------------------------
# Determinism and export
# ----------------------------------------------------------------------
def _small_config(seed):
    return FlowSimConfig(
        formula={"kind": "sqrt", "rtt": 0.1},
        generator={"kind": "poisson-arrivals", "arrival_rate": 1.5,
                   "mean_duration": 4.0},
        loss_event_rate=0.1,
        coefficient_of_variation=0.6,
        history_length=8,
        duration=30.0,
        record_flowlets=True,
        seed=seed,
    )


class TestDeterminismAndExport:
    def test_same_seed_reproduces_the_run(self):
        first = run_flowsim(_small_config(seed=42))
        second = run_flowsim(_small_config(seed=42))
        assert [r.to_dict() for r in first.records] == [
            r.to_dict() for r in second.records
        ]
        assert [f.to_dict() for f in first.flowlets] == [
            f.to_dict() for f in second.flowlets
        ]
        assert first.summary() == second.summary()

    def test_different_seed_differs(self):
        first = run_flowsim(_small_config(seed=42))
        second = run_flowsim(_small_config(seed=43))
        assert [r.to_dict() for r in first.records] != [
            r.to_dict() for r in second.records
        ]

    def test_flow_record_jsonl_round_trip(self, tmp_path):
        result = run_flowsim(_small_config(seed=7))
        path = tmp_path / "records.jsonl"
        count = write_flow_records(path, result.records)
        assert count == len(result.records) > 0
        assert read_flow_records(path) == result.records

    def test_flowlet_jsonl_round_trip(self, tmp_path):
        result = run_flowsim(_small_config(seed=7))
        path = tmp_path / "flowlets.jsonl"
        count = write_flowlets(path, result.flowlets)
        assert count == len(result.flowlets) > 0
        assert read_flowlets(path) == result.flowlets

    def test_record_objects_round_trip_dicts(self):
        record = FlowRecord(
            flow_id=3, start_time=1.0, end_time=9.0, packets_sent=120.0,
            num_flowlets=8, mean_rate=15.0, completed=True, size=120.0,
        )
        assert FlowRecord.from_dict(record.to_dict()) == record
        assert record.duration == pytest.approx(8.0)
        flowlet = Flowlet(
            flow_id=3, start=2.0, duration=1.0, rate=15.0, packets=15.0
        )
        assert Flowlet.from_dict(flowlet.to_dict()) == flowlet


# ----------------------------------------------------------------------
# Rate semantics
# ----------------------------------------------------------------------
class TestRateSemantics:
    def test_mean_sampling_is_exactly_the_formula(self):
        formula = api.FORMULAS.from_config({"kind": "sqrt", "rtt": 0.2})
        result = run_flowsim(
            formula={"kind": "sqrt", "rtt": 0.2},
            generator={"kind": "fixed-population", "num_flows": 20},
            loss_event_rate=0.05,
            duration=10.0,
            sampling="mean",
            seed=1,
        )
        expected = formula.rate(0.05)
        assert result.mean_flow_rate == pytest.approx(expected)
        assert result.total_packets == pytest.approx(20 * 10.0 * expected)

    def test_estimator_sampling_matches_formula_within_5_percent(self):
        result = run_flowsim(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "fixed-population", "num_flows": 200},
            loss_event_rate=0.05,
            coefficient_of_variation=0.6,
            history_length=8,
            duration=100.0,
            seed=9,
        )
        assert result.mean_flow_rate == pytest.approx(
            result.predicted_rate, rel=0.05
        )

    def test_event_count_is_independent_of_population(self):
        small = run_flowsim(
            formula="sqrt",
            generator={"kind": "fixed-population", "num_flows": 10},
            loss_event_rate=0.1, duration=20.0, seed=2,
        )
        large = run_flowsim(
            formula="sqrt",
            generator={"kind": "fixed-population", "num_flows": 1000},
            loss_event_rate=0.1, duration=20.0, seed=2,
        )
        assert small.events_processed == large.events_processed
        assert large.flowlets_emitted == 100 * small.flowlets_emitted


# ----------------------------------------------------------------------
# Campaign integration and the flowsim-scale acceptance criteria
# ----------------------------------------------------------------------
class TestCampaignIntegration:
    def test_flowsim_runner_registered(self):
        from repro.experiments import runner_kinds

        assert "flowsim" in runner_kinds()

    def test_flowsim_scale_preset_meets_acceptance(self):
        spec = preset("flowsim-scale")
        assert spec.runner == "flowsim"
        started = time.perf_counter()
        campaign = ExperimentRunner().run(spec)
        wall = time.perf_counter() - started
        campaign.raise_errors()
        assert len(campaign.results) == 2
        for point in campaign.results:
            summary = point.value
            assert summary["peak_concurrent"] >= 10_000
            assert summary["duration"] == pytest.approx(100.0)
            assert np.isclose(
                summary["mean_flow_rate"], summary["predicted_rate"],
                rtol=0.05,
            )
        # The whole 2-point campaign (2 x 10k flows x 100 s) must run in
        # seconds, not minutes -- the point of the flow-level abstraction.
        assert wall < 10.0


# ----------------------------------------------------------------------
# Short-flow (csa00) sampling and the flowlets_dropped accounting
# ----------------------------------------------------------------------
class TestShortFlowSampling:
    def test_latency_model_requires_csa00_sampling(self):
        with pytest.raises(ValueError, match="csa00"):
            FlowSimConfig(
                formula="sqrt",
                loss_event_rate=0.1,
                latency_model={"kind": "csa00"},
            )

    def test_config_dict_round_trip_with_latency_model(self):
        import json

        config = FlowSimConfig(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "poisson-arrivals", "arrival_rate": 2.0,
                       "mean_size": 40.0},
            loss_event_rate=0.05,
            sampling="csa00",
            latency_model={"kind": "csa00", "rtt": 0.1},
            duration=10.0,
            seed=3,
        )
        payload = config.to_dict()
        json.dumps(payload)  # JSON-safe, including the model config
        rebuilt = FlowSimConfig.from_dict(payload)
        assert rebuilt.to_dict() == payload

    def test_bounded_flows_send_at_the_model_rate(self):
        from repro.core.shortflow import Csa00LatencyModel

        interval = 0.5
        result = run_flowsim(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "poisson-arrivals", "arrival_rate": 2.0,
                       "mean_size": 40.0},
            loss_event_rate=0.05,
            sampling="csa00",
            duration=120.0,
            interval=interval,
            seed=7,
        )
        model = Csa00LatencyModel(rtt=0.1)
        records = [r for r in result.records
                   if r.completed and r.size is not None]
        assert len(records) > 100
        for record in records:
            # Every flowlet of a size-bounded flow carries the constant
            # short-flow effective rate size / E[latency] ...
            assert record.mean_rate == pytest.approx(
                model.transfer_rate(record.size, 0.05), rel=1e-12
            )
            # ... so the flow finishes its size on the model-predicted
            # latency, up to the tick quantisation of the simulator.
            latency = model.latency(record.size, 0.05)
            assert record.packets_sent >= record.size
            assert latency < record.duration <= latency + 2.0 * interval

    @pytest.mark.parametrize("model", [
        None,
        "csa00",
        {"kind": "csa00", "initial_window": 2},
        {"kind": "csa00", "rtt": 1.0},
    ])
    def test_latency_model_runs_at_the_formulas_rtt(self, model):
        # A config that names no rtt used to run at CSA00's default 1.0 s
        # against a formula at 0.1 s; the rto re-derives as 2 * rtt.
        from repro.flowsim import FlowSimulation

        simulation = FlowSimulation(FlowSimConfig(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "poisson-arrivals", "arrival_rate": 2.0,
                       "mean_size": 40.0},
            loss_event_rate=0.05,
            sampling="csa00",
            latency_model=model,
            duration=10.0,
        ))
        assert simulation.latency_model.rtt == 0.1
        assert simulation.latency_model.rto == 0.2

    def test_unbounded_flows_keep_the_steady_state_rate(self):
        formula = api.FORMULAS.from_config({"kind": "sqrt", "rtt": 0.1})
        result = run_flowsim(
            formula={"kind": "sqrt", "rtt": 0.1},
            generator={"kind": "fixed-population", "num_flows": 10},
            loss_event_rate=0.05,
            sampling="csa00",
            duration=10.0,
            seed=5,
        )
        assert result.mean_flow_rate == pytest.approx(formula.rate(0.05))


class TestFlowletsDropped:
    def test_subinterval_flows_are_counted_not_silent(self):
        from repro import telemetry

        # Bursts far shorter than the sampling interval open and close
        # between ticks, emitting zero flowlets; they used to vanish
        # from the flowlet stream without a trace.
        telemetry.enable(fresh=True)
        try:
            result = run_flowsim(
                formula="sqrt",
                generator={"kind": "on-off", "num_flows": 10,
                           "mean_on": 0.05, "mean_off": 0.5},
                loss_event_rate=0.1,
                duration=30.0,
                interval=1.0,
                seed=13,
            )
            counted = telemetry.get_registry().counter(
                "flowsim.flowlets_dropped"
            )
        finally:
            telemetry.disable()
            telemetry.reset()
        assert result.flowlets_dropped > 0
        assert result.summary()["flowlets_dropped"] == result.flowlets_dropped
        assert counted == float(result.flowlets_dropped)
        # Dropped flows still count as flows; only their flowlets are
        # missing from the stream.
        zero_flowlet = [r for r in result.records if r.num_flowlets == 0]
        assert len(zero_flowlet) >= result.flowlets_dropped - result.num_flows

    def test_steady_runs_drop_nothing(self):
        result = run_flowsim(
            formula="sqrt",
            generator={"kind": "fixed-population", "num_flows": 5},
            loss_event_rate=0.1,
            duration=20.0,
            seed=2,
        )
        assert result.flowlets_dropped == 0
