"""Tests for the flow-level simulator (repro.flowsim).

Covers seed determinism of whole runs, the JSONL export round-trip, generator
validation and behaviour, agreement between the sampled mean flow rate
and the formula's steady-state prediction, and the ``flowsim-scale``
campaign preset's acceptance criteria (10k concurrent flows, 100
simulated seconds, seconds of wall-clock).  ``poisson-arrivals`` draws
each window's arrivals in one block; its oracle is a test-local copy of
the per-arrival generator it replaced (two events and two scalar draws
per flow), which must give the same records and leave the random
stream at the same place.  The discrete-event core is the shared event
loop; its contract is in ``test_engine_contract.py``.
"""

import hashlib
import json
import pickle
import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
import pytest

from repro import api
from repro.experiments import ExperimentRunner, preset
from repro.flowsim import generators
from repro.flowsim import (
    FixedPopulationGenerator,
    FlowRecord,
    FlowSimConfig,
    FlowSimulation,
    Flowlet,
    OnOffGenerator,
    PoissonArrivalsGenerator,
    TrafficGenerator,
    read_flow_records,
    read_flowlets,
    run_flowsim,
    write_flow_records,
    write_flowlets,
)
from repro.flowsim.run import MAX_TICKS


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

    @pytest.mark.parametrize("fields, error, message", [
        ({"formula": "no-such"}, KeyError, "unknown formula kind 'no-such'"),
        ({"history_length": 4.5}, ValueError,
         "history_length must be an integer, got 4.5"),
        ({"generator": "no-gen"}, KeyError,
         "unknown traffic generator kind 'no-gen'"),
        ({"sampling": "csa00",
          "latency_model": {"kind": "csa00", "initial_window": -1}},
         ValueError, "initial_window must be a positive integer"),
    ])
    def test_rejects_bad_components_at_construction(
        self, fields, error, message
    ):
        # Each used to construct and fail only inside run_flowsim.
        with pytest.raises(error, match=message):
            FlowSimConfig(**{"formula": "sqrt", "loss_event_rate": 0.1,
                             **fields})

    def test_rejects_unknown_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            FlowSimConfig(
                formula="sqrt", loss_event_rate=0.1, sampling="bogus"
            )

    @pytest.mark.parametrize("fields, message", [
        # Each used to construct: the first never ended, the second ran
        # and emitted no flowlet, the two nans failed only at run time.
        ({"duration": float("inf")}, "duration must be positive and finite"),
        ({"interval": float("inf")}, "interval must be positive and finite"),
        ({"duration": float("nan")}, "duration must be positive and finite"),
        ({"interval": float("nan")}, "interval must be positive and finite"),
        # ... and this one needed 1e301 ticks.
        ({"duration": 10.0, "interval": 1e-300}, "more than the limit"),
        ({"duration": MAX_TICKS + 1.0, "interval": 1.0}, "more than the limit"),
    ])
    def test_rejects_a_run_outside_the_domain(self, fields, message):
        with pytest.raises(ValueError, match=message):
            FlowSimConfig(formula="sqrt", loss_event_rate=0.1, **fields)

    def test_the_tick_limit_is_inclusive(self):
        config = FlowSimConfig(formula="sqrt", loss_event_rate=0.1,
                               duration=float(MAX_TICKS), interval=1.0)
        assert config.duration / config.interval == MAX_TICKS

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

    @pytest.mark.parametrize("config, message", [
        # Each used to construct: the first two then ran forever, each
        # arrival scheduling the next at delay 0.
        ({"kind": "poisson-arrivals", "arrival_rate": float("inf"),
          "mean_duration": 5.0}, "arrival_rate"),
        (json.loads('{"kind": "poisson-arrivals", "arrival_rate": 1e999, '
                    '"mean_size": 40.0}'), "arrival_rate"),
        # ... these failed only at run time, as a negative delay ...
        ({"kind": "poisson-arrivals", "arrival_rate": float("nan"),
          "mean_duration": 5.0}, "arrival_rate"),
        ({"kind": "poisson-arrivals", "arrival_rate": 2.0,
          "mean_duration": float("nan")}, "mean_duration"),
        ({"kind": "on-off", "mean_on": float("nan")}, "mean_on"),
        # ... these ran unbounded flows with size=None ...
        ({"kind": "poisson-arrivals", "arrival_rate": 2.0,
          "mean_size": float("nan")}, "mean_size"),
        ({"kind": "poisson-arrivals", "arrival_rate": 2.0,
          "mean_size": float("inf")}, "mean_size"),
        # ... and these never closed a flow or turned a source back on;
        ({"kind": "poisson-arrivals", "arrival_rate": 2.0,
          "mean_duration": float("inf")}, "mean_duration"),
        ({"kind": "on-off", "mean_off": float("inf")}, "mean_off"),
        # a count must be an integer: 2.5 was a TypeError at run time,
        # True ran one flow.
        ({"kind": "fixed-population", "num_flows": 2.5}, "num_flows"),
        ({"kind": "fixed-population", "num_flows": True}, "num_flows"),
        ({"kind": "on-off", "num_flows": 2.5}, "num_flows"),
        ({"kind": "on-off", "num_flows": True}, "num_flows"),
    ])
    def test_rejects_parameters_outside_the_domain(self, config, message):
        with pytest.raises(ValueError, match=message):
            api.GENERATORS.from_config(config)

    def test_a_huge_arrival_rate_fails_before_drawing(self):
        # 1e300 arrivals/s is finite, so construction accepts it; its
        # first window used to draw block after block of ~1e-300 s gaps
        # and never end.
        config = FlowSimConfig(
            formula="sqrt", loss_event_rate=0.1, duration=10.0, seed=1,
            generator={"kind": "poisson-arrivals", "arrival_rate": 1e300,
                       "mean_duration": 5.0},
        )
        started = time.perf_counter()
        with pytest.raises(ValueError, match="more than the limit"):
            run_flowsim(config)
        assert time.perf_counter() - started < 1.0

    def test_the_window_limit_bounds_expected_arrivals(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_WINDOW_ARRIVALS", 1000)

        def run(arrival_rate):
            return run_flowsim(FlowSimConfig(
                formula="sqrt", loss_event_rate=0.1, duration=2.0, seed=3,
                generator={"kind": "poisson-arrivals",
                           "arrival_rate": arrival_rate, "mean_size": 5.0},
            ))

        # 900 per one-second window runs; 1100 expects ~1099 > 1000.
        assert run(900.0).num_flows > 1000
        with pytest.raises(ValueError, match="more than the limit of 1000"):
            run(1100.0)

    def test_numpy_integer_counts_pass(self):
        assert FixedPopulationGenerator(num_flows=np.int64(3)).num_flows == 3
        assert OnOffGenerator(num_flows=np.int32(2)).num_flows == 2

    @pytest.mark.parametrize("size", [float("inf"), float("nan"), 0.0])
    def test_open_flow_rejects_a_size_outside_the_domain(self, size):
        simulation = FlowSimulation(FlowSimConfig(
            formula="sqrt", loss_event_rate=0.1, duration=5.0,
        ))
        with pytest.raises(ValueError, match="flow size"):
            simulation.open_flow(size)

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

    def test_record_classes_are_slotted_and_pickle(self):
        record = FlowRecord(3, 1.0, 9.0, 120.0, 8, 15.0, True, None)
        flowlet = Flowlet(3, 2.0, 1.0, 15.0, 15.0)
        for item in (record, flowlet):
            assert not hasattr(item, "__dict__")
            assert pickle.loads(pickle.dumps(item)) == item
            assert type(item).from_dict(item.to_dict()) == item
            with pytest.raises(AttributeError):
                item.flow_id = 4


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


# ----------------------------------------------------------------------
# The columnar flow table: golden digests and tick semantics
# ----------------------------------------------------------------------
_PERFBENCH_POINT = {
    "formula": {"kind": "sqrt", "rtt": 0.1},
    "loss_event_rate": 0.1,
    "coefficient_of_variation": 0.6,
    "history_length": 8,
    "duration": 100.0,
    "interval": 1.0,
}
_CHURN = {"kind": "poisson-arrivals", "arrival_rate": 500.0,
          "mean_duration": 10.0}
_STEADY = {"kind": "fixed-population", "num_flows": 10_000}

#: Name -> (run_flowsim kwargs, digest of every record, every flowlet and
#: the summary but its event count, that event count).  The four
#: perfbench runs carry the seeds perfbench's flowsim workload derives
#: from workload seeds 1 and 90210.  The digests were recorded on the
#: per-arrival Poisson generator (two events per arrival) that preceded
#: the windowed one; a digest that moves means a run's output moved.  A
#: Poisson run processes one event per tick.
_GOLDEN = {
    "churn-1": (dict(_PERFBENCH_POINT, generator=_CHURN,
                     seed=214385109378366086), "d1e062a424181fa6", 100),
    "steady-1": (dict(_PERFBENCH_POINT, generator=_STEADY,
                      seed=4687191618655743566), "b7a0740163c046e6", 100),
    "churn-90210": (dict(_PERFBENCH_POINT, generator=_CHURN,
                         seed=6563708960529568841), "f245643b6ebd38bb", 100),
    "steady-90210": (dict(_PERFBENCH_POINT, generator=_STEADY,
                          seed=330484300456082645), "f93885cd9120fdcc", 100),
    # On-periods mostly shorter than one interval.
    "on-off-short": (dict(
        formula="sqrt", loss_event_rate=0.1, duration=60.0, seed=13,
        generator={"kind": "on-off", "num_flows": 20, "mean_on": 0.4,
                   "mean_off": 1.5},
    ), "127d8b8b623d6a0c", 1297),
    # Integer duration and interval, recorded flowlets.
    "on-off-long": (dict(
        formula={"kind": "aimd", "rtt": 0.2}, loss_event_rate=0.02,
        coefficient_of_variation=0.9, history_length=2,
        record_flowlets=True, duration=80, interval=2, seed=17,
        generator={"kind": "on-off", "num_flows": 30, "mean_on": 6.0,
                   "mean_off": 3.0},
    ), "a60f0883191298b4", 607),
    "size-estimator": (dict(
        formula={"kind": "pftk-simplified", "rtt": 0.2},
        loss_event_rate=0.05, coefficient_of_variation=0.8,
        history_length=4, duration=60.0, seed=5,
        generator={"kind": "poisson-arrivals", "arrival_rate": 20.0,
                   "mean_size": 40.0},
    ), "4fbacf9238a83ca1", 60),
    "size-csa00": (dict(
        formula={"kind": "sqrt", "rtt": 0.1}, loss_event_rate=0.05,
        sampling="csa00", duration=60.0, interval=0.5, seed=7,
        generator={"kind": "poisson-arrivals", "arrival_rate": 20.0,
                   "mean_size": 40.0},
    ), "472362eea66b79c9", 120),
    "duration-mean-flowlets": (dict(
        formula="sqrt", loss_event_rate=0.1, sampling="mean",
        record_flowlets=True, interval=0.7, duration=40.0, seed=11,
        generator={"kind": "poisson-arrivals", "arrival_rate": 5.0,
                   "mean_duration": 3.0},
    ), "c4284fe3e200956c", 57),
}


def _digest(result):
    digest = hashlib.sha256()
    for item in [*result.records, *result.flowlets]:
        digest.update(repr(item).encode())
    digest.update(repr(sorted(_summary(result).items())).encode())
    return digest.hexdigest()[:16]


def _summary(result):
    """The summary but its event count, which the generator path sets."""
    summary = result.summary()
    del summary["events_processed"]
    return summary


class _Scripted(TrafficGenerator):
    """Opens flows at ``opens`` (time, size) and closes them at ``closes``
    (time, flow id).  Flows opened at time 0 join before the first tick;
    flow ids follow the order of the opens."""

    def __init__(self, opens=(), closes=()):
        self.opens, self.closes = opens, closes

    def install(self, simulation):
        for at, size in self.opens:
            if at == 0.0:
                simulation.open_flow(size)
            else:
                simulation.core.schedule_at(
                    at, partial(simulation.open_flow, size)
                )
        for at, flow_id in self.closes:
            simulation.core.schedule_at(
                at, partial(simulation.close_flow, flow_id)
            )


def _scripted_run(opens, closes, **fields):
    return run_flowsim(**{
        "formula": {"kind": "sqrt", "rtt": 0.1},
        "generator": _Scripted(opens, closes),
        "loss_event_rate": 0.1,
        "sampling": "mean",
        "duration": 5.0,
        "interval": 1.0,
        "seed": 1,
        **fields,
    })


_RATE = api.FORMULAS.from_config({"kind": "sqrt", "rtt": 0.1}).rate(0.1)


class TestFlowTable:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_golden_digest(self, name):
        config, digest, events = _GOLDEN[name]
        result = run_flowsim(**config)
        assert _digest(result) == digest
        assert result.events_processed == events

    def test_flow_ids_are_python_ints(self):
        config, _, _ = _GOLDEN["on-off-long"]
        result = run_flowsim(**config)
        assert result.records and result.flowlets
        assert all(type(r.flow_id) is int for r in result.records)
        assert all(type(f.flow_id) is int for f in result.flowlets)

    def test_close_of_a_flow_still_in_the_open_buffer(self):
        result = _scripted_run(
            opens=[(0.0, None), (2.25, None)], closes=[(2.75, 1)]
        )
        burst, survivor = result.records
        assert burst == FlowRecord(1, 2.25, 2.75, 0.0, 0, 0.0, True, None)
        assert survivor.flow_id == 0 and not survivor.completed
        assert survivor.num_flowlets == 5
        assert result.num_completed == 1
        assert result.flowlets_dropped == 1
        assert result.peak_concurrent == 1

    def test_close_of_a_flow_finished_by_its_size_limit(self):
        # Flow 0 sends its 10 packets in the first interval; the later
        # close finds no flow and adds no record.
        result = _scripted_run(
            opens=[(0.0, 10.0), (0.0, None)], closes=[(2.5, 0)]
        )
        finished, survivor = result.records
        assert finished == FlowRecord(
            0, 0.0, 1.0, _RATE, 1, _RATE, True, 10.0
        )
        assert survivor.flow_id == 1 and not survivor.completed
        assert result.num_flows == len(result.records) == 2
        assert result.num_completed == 1
        assert result.flowlets_dropped == 0

    def test_several_closes_in_one_tick(self):
        # Closes land in the table's (flow-id) order, each at its own
        # time; a repeated close keeps the first.
        result = _scripted_run(
            opens=[(0.0, None)] * 5,
            closes=[(2.2, 1), (2.5, 4), (2.9, 3), (2.95, 1)],
        )
        assert [r.flow_id for r in result.records] == [1, 3, 4, 0, 2]
        closed = result.records[:3]
        assert [r.end_time for r in closed] == [2.2, 2.9, 2.5]
        for record in closed:
            assert record.completed and record.num_flowlets == 2
            assert record.mean_rate == pytest.approx(_RATE)
        for record in result.records[3:]:
            assert not record.completed and record.num_flowlets == 5
        assert result.num_completed == 3
        assert result.flowlets_emitted == 2 * 3 + 5 * 2

    def test_end_of_run_cut_off(self):
        # Integer times still give float end times.  A close and an open
        # buffered after the last tick (at 4) are applied at the end.
        result = _scripted_run(
            opens=[(0.0, None)] * 3 + [(4.6, 50.0)],
            closes=[(4.5, 2)],
            duration=5,
            interval=2,
            record_flowlets=True,
        )
        assert [r.flow_id for r in result.records] == [2, 0, 1, 3]
        closed, *cut = result.records
        assert closed == FlowRecord(
            2, 0.0, 4.5, 4 * _RATE, 2, _RATE, True, None
        )
        for record in cut[:2]:
            assert type(record.end_time) is float
            assert record.end_time == 5.0
            assert not record.completed and record.num_flowlets == 2
        assert cut[2] == FlowRecord(3, 4.6, 5.0, 0.0, 0, 0.0, False, 50.0)
        assert result.flowlets_dropped == 1
        assert result.num_completed == 1
        assert [(f.flow_id, f.start) for f in result.flowlets] == [
            (0, 0.0), (1, 0.0), (2, 0.0), (0, 2.0), (1, 2.0), (2, 2.0)
        ]


# ----------------------------------------------------------------------
# Poisson arrivals drawn per window, against the per-arrival oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _PerArrival(TrafficGenerator):
    """The per-arrival Poisson generator the windowed one replaced.

    Each arrival is an event that opens its flow, draws its size or
    lifetime (scheduling the close of a duration-bounded flow), and draws
    the gap to the next arrival.
    """

    arrival_rate: float
    mean_size: Optional[float] = None
    mean_duration: Optional[float] = None

    def install(self, simulation):
        self._schedule_next_arrival(simulation)

    def _schedule_next_arrival(self, simulation):
        delay = simulation.rng.exponential(1.0 / self.arrival_rate)
        simulation.core.schedule(delay, lambda: self._arrive(simulation))

    def _arrive(self, simulation):
        if self.mean_size is not None:
            simulation.open_flow(size=simulation.rng.exponential(self.mean_size))
        else:
            flow_id = simulation.open_flow()
            lifetime = simulation.rng.exponential(self.mean_duration)
            simulation.core.schedule(
                lifetime, lambda: simulation.close_flow(flow_id)
            )
        self._schedule_next_arrival(simulation)


def _run_both(generator, **fields):
    """Run ``generator`` as ``poisson-arrivals`` and as the oracle."""
    runs = []
    for kind in (PoissonArrivalsGenerator, _PerArrival):
        simulation = FlowSimulation(FlowSimConfig(**{
            "formula": {"kind": "sqrt", "rtt": 0.1},
            "loss_event_rate": 0.1,
            "coefficient_of_variation": 0.6,
            "history_length": 8,
            "record_flowlets": True,
            "seed": 3,
            **fields,
            "generator": kind(**generator),
        }))
        result = simulation.run()
        runs.append((result, simulation.rng.random()))
    return runs


class TestWindowedArrivals:
    @pytest.mark.parametrize("generator, fields", [
        # size-bounded, estimator sampling
        ({"arrival_rate": 20.0, "mean_size": 40.0},
         {"formula": {"kind": "pftk-simplified", "rtt": 0.2},
          "duration": 30.0}),
        # duration-bounded, mean sampling, interval 0.7 over 40 s
        ({"arrival_rate": 5.0, "mean_duration": 3.0},
         {"sampling": "mean", "interval": 0.7, "duration": 40.0}),
        # size-bounded short flows at the csa00 rate
        ({"arrival_rate": 20.0, "mean_size": 40.0},
         {"sampling": "csa00", "interval": 0.5, "duration": 30.0}),
        # windows of ~10k arrivals, past the first look-ahead block
        ({"arrival_rate": 2000.0, "mean_duration": 1.0},
         {"interval": 5.0, "duration": 15.0}),
        # mostly empty windows
        ({"arrival_rate": 0.05, "mean_duration": 30.0},
         {"duration": 300.0}),
        ({"arrival_rate": 0.05, "mean_size": 200.0},
         {"sampling": "mean", "interval": 0.5, "duration": 300.0}),
    ])
    def test_matches_the_per_arrival_generator(self, generator, fields):
        (windowed, after), (oracle, oracle_after) = _run_both(
            generator, **fields
        )
        assert windowed.num_flows > 0
        assert windowed.records == oracle.records
        assert windowed.flowlets == oracle.flowlets
        assert _summary(windowed) == _summary(oracle)
        # The stream ends at the same place.
        assert after == oracle_after
        ticks = round(fields["duration"] / fields.get("interval", 1.0))
        assert windowed.events_processed == ticks
        assert oracle.events_processed >= ticks + windowed.num_flows

    def test_window_and_tie_rules(self):
        # Every draw is its scale: arrivals every 0.5 s from 0.5, each
        # living 2.5 s, so arrivals and ends fall on tick times.
        simulation = FlowSimulation(FlowSimConfig(
            formula={"kind": "sqrt", "rtt": 0.1}, loss_event_rate=0.1,
            sampling="mean", duration=5.0, interval=1.0, seed=1,
            generator={"kind": "poisson-arrivals", "arrival_rate": 2.0,
                       "mean_duration": 2.5},
        ))
        simulation.rng = _DrawsAreScales()
        result = simulation.run()
        records = {r.flow_id: r for r in result.records}
        # The arrival at 5.0, the run's end, opens; 5.5 does not.
        assert [r.start_time for r in result.records] == [
            0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0
        ]
        # Flow 0 (0.5 to 3.0) joins at tick 1, is sampled at 2 and closes
        # at 3 before the tick samples.  Flow 1 arrives at tick time 1.0,
        # so it is in the window after tick 1: it joins at 2, is sampled
        # at 3 and closes at 4 (its end, 3.5).
        assert records[0] == FlowRecord(
            0, 0.5, 3.0, _RATE, 1, _RATE, True, None
        )
        assert records[1] == FlowRecord(
            1, 1.0, 3.5, _RATE, 1, _RATE, True, None
        )
        assert [r.num_flowlets for r in result.records] == [
            1, 1, 1, 1, 1, 1, 1, 0, 0, 0
        ]
        assert [r.completed for r in result.records] == [True] * 5 + [False] * 5
        assert [r.end_time for r in result.records[5:]] == [5.0] * 5
        assert result.events_processed == 5

    def test_scripted_close_at_a_tick_time_closes_before_it_samples(self):
        result = _scripted_run(
            opens=[(0.0, None), (0.0, None)], closes=[(2.0, 0)]
        )
        closed, survivor = result.records
        assert closed == FlowRecord(0, 0.0, 2.0, _RATE, 1, _RATE, True, None)
        assert survivor.num_flowlets == 5


class _DrawsAreScales:
    """Stands in for the run's random generator: every exponential draw
    returns its scale."""

    class bit_generator:
        state = None

    def exponential(self, scale, size=None):
        if size is None:
            return float(scale)
        return np.broadcast_to(np.asarray(scale, dtype=float), size).copy()
