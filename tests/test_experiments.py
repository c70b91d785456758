"""Tests for the campaign subsystem: specs, runner, registry and store."""

import dataclasses
import json

import numpy as np
import pytest

from repro import api
from repro.core import PftkSimplifiedFormula, SqrtFormula
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    MemoisingStore,
    ResultStore,
    execute_point,
    grid,
    preset,
    preset_names,
    register_runner,
    resolve_runner,
    runner_kinds,
)
from repro.experiments import runner as runner_module
from repro.experiments.registry import IN_PROCESS_KINDS, run_campaign_batched
from repro.lossprocess import derive_point_seed


def small_montecarlo_spec(name="unit", seed=5):
    return ExperimentSpec(
        name=name,
        runner="montecarlo-basic",
        base={
            "formula": {"name": "sqrt", "rtt": 1.0},
            "coefficient_of_variation": 0.9,
            "num_events": 1_000,
        },
        grid=grid(history_length=[2, 8], loss_event_rate=[0.05, 0.2]),
        seed=seed,
    )


def small_audio_spec(seed=9):
    """A 4-point pool-kind campaign: seeded packet-level audio runs."""
    return ExperimentSpec(
        name="unit-audio",
        runner="audio",
        base={
            "formula": {"kind": "pftk-simplified", "rtt": 1.0},
            "history_length": 4,
            "duration": 10.0,
        },
        grid={"loss_probability": [0.05, 0.1, 0.2, 0.3]},
        seed=seed,
    )


def canonical_values(campaign):
    """Each point's value as canonical JSON: bit-exact, and NaN-safe."""
    return [json.dumps(r.value, sort_keys=True) for r in campaign.results]


def failing_runner(params, seed):
    if params.get("explode"):
        raise RuntimeError("boom at " + str(params["value"]))
    return {"value": params["value"]}


register_runner("unit-failing", failing_runner)


class TestSeedDerivation:
    def test_none_propagates(self):
        assert derive_point_seed(None, history_length=4) is None

    def test_deterministic_and_axis_sensitive(self):
        seed = derive_point_seed(7, history_length=4, loss_event_rate=0.1)
        assert seed == derive_point_seed(7, loss_event_rate=0.1, history_length=4)
        assert seed != derive_point_seed(7, history_length=8, loss_event_rate=0.1)
        assert seed != derive_point_seed(8, history_length=4, loss_event_rate=0.1)
        assert 0 <= seed < 2**32

    def test_base_is_positional_only_so_any_axis_name_works(self):
        spec = ExperimentSpec(
            name="axis-named-base",
            runner="unit-failing",
            grid={"base": [1, 2], "value": [1]},
            seed=1,
        )
        points = spec.expand()
        assert len(points) == 2
        assert points[0].seed != points[1].seed

    def test_no_cross_sweep_collisions_for_small_bases(self):
        """The old additive schemes collided (seed + index vs seed +
        1000*L + index); the hashed scheme keeps distinct axis sets apart."""
        history_only = {derive_point_seed(1, history_length=length)
                       for length in (1, 2, 4, 8, 16)}
        with_rate = {derive_point_seed(1, history_length=length, loss_event_rate=0.01)
                     for length in (1, 2, 4, 8, 16)}
        assert len(history_only) == 5
        assert len(with_rate) == 5
        assert not history_only & with_rate


class TestSpec:
    def test_grid_helper_coerces(self):
        axes = grid(p=[0.1, 0.2], L=(2, 8), seed=range(2), tag="x")
        assert axes == {"p": [0.1, 0.2], "L": [2, 8], "seed": [0, 1], "tag": ["x"]}

    def test_grid_helper_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            grid(p=[])

    def test_round_trip_through_json(self):
        spec = small_montecarlo_spec()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert json.loads(spec.to_json())["runner"] == "montecarlo-basic"

    def test_from_dict_rejects_unknown_fields(self):
        payload = small_montecarlo_spec().to_dict()
        payload["frobnicate"] = 1
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(payload)

    @pytest.mark.parametrize("values", ["28", 8])
    def test_from_dict_rejects_a_non_list_grid_axis(self, values):
        # A string must not be split into one-character axis values.
        payload = small_montecarlo_spec().to_dict()
        payload["grid"]["history_length"] = values
        with pytest.raises(ValueError, match="non-empty sequence"):
            ExperimentSpec.from_dict(payload)
        with pytest.raises(ValueError, match="non-empty sequence"):
            ExperimentSpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field, value", [
        ("grid", [1]),
        ("base", [["k", 1]]),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "abc"),
        ("seed", -1),
    ])
    def test_from_dict_rejects_a_malformed_field(self, field, value):
        # Each was a bare AttributeError, or was accepted: a list base as
        # the dict it spells, a float or bool seed as the integer one, a
        # string seed until expand() called int() on it.
        payload = small_montecarlo_spec().to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            ExperimentSpec.from_dict(payload)
        with pytest.raises(ValueError, match=field):
            ExperimentSpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text", ["[]", "5", "null", '"spec"'])
    def test_from_json_rejects_a_payload_that_is_not_an_object(self, text):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentSpec.from_json(text)

    def test_axes_must_not_shadow_base(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                name="bad",
                runner="montecarlo-basic",
                base={"history_length": 8},
                grid={"history_length": [2, 4]},
            )

    def test_expansion_count_and_row_major_order(self):
        spec = ExperimentSpec(
            name="order",
            runner="unit-failing",
            grid={"a": [1, 2], "b": ["x", "y", "z"]},
        )
        points = spec.expand()
        assert spec.num_points() == len(points) == 6
        assert [point.index for point in points] == list(range(6))
        # Last axis varies fastest (row-major).
        assert [point.axes for point in points] == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"}, {"a": 1, "b": "z"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "z"},
        ]

    def test_point_key_ignores_spec_name_but_not_params(self):
        spec_a = small_montecarlo_spec(name="a")
        spec_b = small_montecarlo_spec(name="b")
        keys_a = [point.key() for point in spec_a.expand()]
        keys_b = [point.key() for point in spec_b.expand()]
        assert keys_a == keys_b
        assert len(set(keys_a)) == len(keys_a)
        other_seed = [p.key() for p in small_montecarlo_spec(seed=6).expand()]
        assert set(keys_a).isdisjoint(other_seed)


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = runner_kinds()
        for kind in ("montecarlo-basic", "montecarlo-comprehensive",
                     "dumbbell", "audio"):
            assert kind in kinds

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            resolve_runner("no-such-kind")

    def test_formula_round_trip_is_exact(self):
        for formula in (SqrtFormula(rtt=0.5), PftkSimplifiedFormula(rtt=2.0)):
            assert api.FORMULAS.from_config(
                api.FORMULAS.to_config(formula)
            ) == formula

    def test_legacy_name_key_still_accepted(self):
        # The pre-registry parameter shape used a "name" key; specs in the
        # wild may still carry it, and from_config keeps accepting it.
        formula = api.FORMULAS.from_config({"name": "sqrt", "rtt": 0.5})
        assert formula == SqrtFormula(rtt=0.5)

    def test_presets_expand(self):
        assert "fig3-pftk" in preset_names()
        spec = preset("fig3-pftk")
        assert spec.num_points() == 45
        with pytest.raises(KeyError):
            preset("fig99")


class TestRunner:
    def test_serial_campaign_values(self):
        campaign = ExperimentRunner().run(small_montecarlo_spec())
        assert campaign.num_points == 4
        assert campaign.num_executed == 4
        assert campaign.num_failed == 0
        for result in campaign.results:
            assert 0.0 < result.value["normalized_throughput"] < 1.1

    def test_parallel_equals_serial_point_for_point(self):
        spec = small_audio_spec(seed=9)
        serial = ExperimentRunner().run(spec)
        parallel = ExperimentRunner(workers=4).run(spec)
        serial.raise_errors()
        assert [r.point.index for r in parallel.results] == [0, 1, 2, 3]
        assert [r.value for r in serial.results] == [r.value for r in parallel.results]

    def test_in_process_kinds_never_start_a_pool(self, monkeypatch):
        """Montecarlo and shortflow points cost less than a pool's
        start-up, so those kinds run in process whatever ``workers``
        says; every other kind still goes to the pool."""

        class PoolStarted(Exception):
            pass

        def refuse_pool(*args, **kwargs):
            raise PoolStarted

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", refuse_pool)
        montecarlo = small_montecarlo_spec()
        specs = [
            montecarlo,
            dataclasses.replace(montecarlo, runner="montecarlo-comprehensive"),
            ExperimentSpec(
                name="unit-shortflow",
                runner="shortflow",
                grid={"transfer_size": [4.0, 64.0],
                      "loss_event_rate": [0.02, 0.1]},
            ),
        ]
        assert {spec.runner for spec in specs} == IN_PROCESS_KINDS
        for spec in specs:
            campaign = ExperimentRunner(workers=4).run(spec)
            campaign.raise_errors()
            assert campaign.num_executed == 4
        with pytest.raises(PoolStarted):
            ExperimentRunner(workers=4).run(small_audio_spec())

    def test_failed_point_is_isolated(self):
        exploding = ExperimentSpec(
            name="isolation",
            runner="unit-failing",
            grid={"explode": [False, True], "value": [1]},
        )
        campaign = ExperimentRunner().run(exploding)
        assert campaign.num_points == 2
        assert campaign.num_executed == 1
        assert campaign.num_failed == 1
        good, bad = campaign.results
        assert good.value == {"value": 1}
        assert bad.value is None and "boom at 1" in bad.error
        with pytest.raises(RuntimeError, match="boom at 1"):
            campaign.raise_errors()

    def test_execute_point_isolates_unknown_runner(self):
        outcome = execute_point({"runner": "no-such-kind", "params": {}, "seed": 1})
        assert outcome["status"] == "error"
        assert "no-such-kind" in outcome["error"]

    def test_progress_callback_sees_every_point(self):
        seen = []
        runner = ExperimentRunner(
            progress=lambda done, total, result: seen.append((done, total,
                                                              result.status))
        )
        runner.run(small_montecarlo_spec())
        assert [entry[0] for entry in seen] == [1, 2, 3, 4]
        assert all(total == 4 for _, total, _ in seen)


class TestStore:
    def test_cache_hit_on_rerun(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        spec = small_montecarlo_spec(seed=3)
        first = ExperimentRunner(store=path).run(spec)
        assert first.num_executed == 4 and first.num_cached == 0

        second = ExperimentRunner(store=path).run(spec)
        assert second.num_executed == 0 and second.num_cached == 4
        assert [r.value for r in second.results] == [r.value for r in first.results]

        forced = ExperimentRunner(store=path).run(spec, force=True)
        assert forced.num_executed == 4 and forced.num_cached == 0

    def test_failed_points_are_not_cache_hits(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        spec = ExperimentSpec(
            name="failures",
            runner="unit-failing",
            grid={"explode": [True], "value": [1]},
        )
        first = ExperimentRunner(store=path).run(spec)
        assert first.num_failed == 1
        second = ExperimentRunner(store=path).run(spec)
        assert second.num_failed == 1 and second.num_cached == 0

    def test_unseeded_points_are_never_cache_hits(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        spec = small_montecarlo_spec(seed=None)
        first = ExperimentRunner(store=path).run(spec)
        second = ExperimentRunner(store=path).run(spec)
        assert first.num_executed == 4 and second.num_executed == 4
        assert second.num_cached == 0

    def test_non_finite_floats_stored_as_null(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(str(path))
        store.put({"key": "k", "status": "ok",
                   "value": {"ratio": float("nan"), "fine": 1.5}})
        line = path.read_text().strip()
        assert "NaN" not in line
        record = json.loads(line)
        assert record["value"] == {"ratio": None, "fine": 1.5}

    def test_failure_traceback_reaches_the_store(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        spec = ExperimentSpec(
            name="post-mortem",
            runner="unit-failing",
            grid={"explode": [True], "value": [7]},
        )
        ExperimentRunner(store=path).run(spec)
        record = next(ResultStore(path).records(status="error"))
        assert "boom at 7" in record["error"]
        assert "RuntimeError" in record["traceback"]

    def test_path_like_store_arguments(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = small_montecarlo_spec(seed=6)
        first = ExperimentRunner(store=path).run(spec)
        assert first.num_executed == 4
        assert ExperimentRunner(store=path).run(spec).num_cached == 4
        memo = MemoisingStore(store=tmp_path / "memo.jsonl")
        memo.put("k", {"value": 1.0})
        assert MemoisingStore(store=tmp_path / "memo.jsonl").get("k") == {
            "value": 1.0}

    @pytest.mark.parametrize(
        "corrupt", ['{"key": "x", "sta', '{"status": "ok"}', "[1, 2]"]
    )
    def test_corrupt_middle_line_is_skipped_and_counted(self, tmp_path, corrupt):
        # Fault injection: an unparsable, keyless or non-object line in
        # the middle of the file costs no other record.
        path = tmp_path / "results.jsonl"
        lines = [json.dumps({"key": key, "status": "ok", "value": {}})
                 for key in "abc"]
        path.write_text("\n".join([lines[0], corrupt] + lines[1:]) + "\n")
        store = ResultStore(str(path))
        assert sorted(record["key"] for record in store.records()) == [
            "a", "b", "c"]
        assert store.skipped == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        spec = small_montecarlo_spec(seed=4)
        ExperimentRunner(store=str(path)).run(spec)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "truncated', )
        store = ResultStore(str(path))
        assert len(store) == 4
        assert store.skipped == 1

    def test_put_after_a_torn_tail_starts_a_fresh_line(self, tmp_path):
        # Fault injection: an interrupted write leaves a fragment with no
        # newline; the next record must not be glued onto it.
        path = tmp_path / "results.jsonl"
        ResultStore(str(path)).put({"key": "a", "status": "ok", "value": {}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "status": "o')
        reopened = ResultStore(str(path))
        assert sorted(record["key"] for record in reopened.records()) == ["a"]
        assert reopened.skipped == 1
        reopened.put({"key": "c", "status": "ok", "value": {}})
        reopened.put({"key": "d", "status": "ok", "value": {}})
        final = ResultStore(str(path))
        assert sorted(record["key"] for record in final.records()) == ["a", "c", "d"]
        assert final.skipped == 1
        assert path.read_text().count("\n") == 4

    def test_load_frame_flattens_params_and_values(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        ExperimentRunner(store=path).run(small_montecarlo_spec(name="frame"))
        frame = ResultStore(path).load_frame(spec_name="frame")
        assert len(frame) == 4
        row = frame[0]
        assert row["runner"] == "montecarlo-basic"
        assert "normalized_throughput" in row and "history_length" in row


class TestSweepIntegration:
    def test_sweep_accepts_custom_formula_subclass(self):
        """Formulas outside the registry can't be made JSON-safe, but a
        spec whose ``base`` holds the instance itself still runs (the
        in-process contract)."""
        class DoubledSqrt(SqrtFormula):
            def rate(self, p):
                return 2.0 * super().rate(p)

        spec = ExperimentSpec(
            name="custom-formula",
            runner="montecarlo-basic",
            base={
                "formula": DoubledSqrt(rtt=1.0),
                "coefficient_of_variation": 1.0 - 1.0 / 1000.0,
                "num_events": 200,
            },
            grid={"history_length": [4], "loss_event_rate": [0.1]},
            seed=3,
        )
        campaign = ExperimentRunner().run(spec)
        campaign.raise_errors()
        assert len(campaign.results) == 1
        assert campaign.results[0].value["normalized_throughput"] > 0.0

    def test_figure3_campaign_parallel_equals_serial_sweep(self, tmp_path):
        """The acceptance check: a Figure-3-sized campaign (5 window lengths
        x 9 loss rates) run through ``ExperimentRunner(workers=4)`` -- in
        process, since montecarlo is an in-process kind -- produces
        point-for-point identical values to a serial ``ExperimentRunner()``
        run on the same seeds, and an immediate re-run is pure cache hits.

        ``num_events`` is shrunk from the figure's 20k to keep the test
        fast; the equality being asserted is exact, so the event count does
        not weaken it.
        """
        formula = PftkSimplifiedFormula(rtt=1.0)
        loss_rates = (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
        lengths = (1, 2, 4, 8, 16)
        num_events = 500
        spec = ExperimentSpec(
            name="fig3-sized",
            runner="montecarlo-basic",
            base={
                "formula": api.FORMULAS.to_config(formula),
                "coefficient_of_variation": 1.0 - 1.0 / 1000.0,
                "num_events": num_events,
            },
            grid={
                "history_length": list(lengths),
                "loss_event_rate": list(loss_rates),
            },
            seed=21,
        )
        serial = ExperimentRunner().run(spec)
        serial.raise_errors()
        serial_points = [result.value for result in serial.results]
        store_path = str(tmp_path / "fig3.jsonl")
        campaign = ExperimentRunner(workers=4, store=store_path).run(spec)
        campaign.raise_errors()
        assert len(serial_points) == campaign.num_points == 45
        assert campaign.num_executed == 45
        for point, result in zip(serial_points, campaign.results):
            assert point["history_length"] == result.value["history_length"]
            assert point["loss_event_rate"] == result.value["loss_event_rate"]
            assert point["normalized_throughput"] == (
                result.value["normalized_throughput"]
            )
            assert point["throughput"] == result.value["throughput"]
            assert point["interval_estimate_covariance"] == (
                result.value["interval_estimate_covariance"]
            )
        rerun = ExperimentRunner(workers=4, store=store_path).run(spec)
        assert rerun.num_cached == 45 and rerun.num_executed == 0
        assert [r.value for r in rerun.results] == [r.value for r in campaign.results]


class TestMatchedSeeds:
    """BatchConfig.point_seed must mirror spec expansion for every grid
    family -- the audit behind the share_noise=False equivalence claims."""

    def test_analytic_grid_seeds_match_campaign(self):
        """Single-valued batch axes sit in the spec's base (excluded from
        seed derivation); multi-valued axes are grid axes.  The derived
        per-point seeds must coincide, including for analytic grids."""
        config = api.BatchConfig(
            formulas=["pftk-simplified"],
            loss_event_rates=[0.05, 0.2],
            coefficients_of_variation=[0.9],   # single-valued -> base
            history_lengths=[2, 8],
            method="analytic",
            num_events=800,
            seed=13,
            share_noise=False,
        )
        spec = ExperimentSpec(
            name="analytic-grid",
            runner="montecarlo-basic",
            base={
                "formula": {"kind": "pftk-simplified", "rtt": 1.0},
                "coefficient_of_variation": 0.9,
                "num_events": 800,
                "method": "analytic",
            },
            grid={
                "history_length": [2, 8],
                "loss_event_rate": [0.05, 0.2],
            },
            seed=13,
        )
        for point in spec.expand():
            assert point.seed == config.point_seed(
                history_length=point.axes["history_length"],
                loss_event_rate=point.axes["loss_event_rate"],
                coefficient_of_variation=0.9,
            )
        # And the values: campaign (scalar per point) == batch to 1e-9.
        campaign = ExperimentRunner().run(spec)
        campaign.raise_errors()
        batch = api.simulate_batch(config)
        values = {
            (row["history_length"], row["loss_event_rate"]):
                row["normalized_throughput"]
            for row in campaign.values()
        }
        assert len(batch) == len(values)
        for result in batch.results:
            key = (result.history_length, result.loss_event_rate)
            assert np.isclose(
                result.normalized_throughput, values[key], rtol=1e-9
            )

    def test_loss_process_grid_seeds_match_campaign(self):
        processes = [
            {"kind": "gamma", "mean": 12.0, "cv": 0.8},
            {"kind": "lognormal", "mean": 20.0, "cv": 0.6},
        ]
        config = api.BatchConfig(
            formulas=["sqrt"],
            loss_processes=processes,
            history_lengths=[2, 8],
            num_events=500,
            seed=19,
            share_noise=False,
        )
        spec = ExperimentSpec(
            name="process-grid",
            runner="montecarlo-basic",
            base={"formula": {"kind": "sqrt", "rtt": 1.0}, "num_events": 500},
            grid={"history_length": [2, 8], "loss_process": processes},
            seed=19,
        )
        for point in spec.expand():
            assert point.seed == config.point_seed(
                history_length=point.axes["history_length"],
                loss_process=point.axes["loss_process"],
            )

    def test_dumbbell_scenario_grid_seeds_are_axis_derived(self):
        """A dumbbell-batch campaign derives its per-point seeds from the
        scenario config axis with the same hash the batch facade uses."""
        scenarios = [
            {"kind": "ns2", "num_connections": n, "duration": 30.0}
            for n in (1, 2)
        ]
        spec = ExperimentSpec(
            name="dumbbell-grid",
            runner="dumbbell-batch",
            base={"replications": 2},
            grid={"scenario": scenarios},
            seed=23,
        )
        points = spec.expand()
        for point, scenario in zip(points, scenarios):
            assert point.seed == derive_point_seed(23, scenario=scenario)
        assert len({point.seed for point in points}) == len(points)


class TestBatchedCampaignFrontend:
    """``run_campaign_batched`` is an alias of the per-point runner.

    Its montecarlo campaigns run in process; each must equal, value for
    value, the same spec forced through the process pool (``pool_run``).
    """

    def test_eligible_montecarlo_spec_matches_pool(self, pool_run):
        spec = small_montecarlo_spec(seed=31)
        pool = pool_run(spec)
        pool.raise_errors()
        batched = run_campaign_batched(spec, workers=2)
        assert [r.point.index for r in batched.results] == [0, 1, 2, 3]
        for a, b in zip(pool.results, batched.results):
            assert a.point.axes == b.point.axes
        assert canonical_values(batched) == canonical_values(pool)

    def test_analytic_spec_goes_through_batch(self, pool_run):
        spec = ExperimentSpec(
            name="batched-analytic",
            runner="montecarlo-basic",
            base={
                "formula": {"kind": "pftk-simplified", "rtt": 1.0},
                "coefficient_of_variation": 0.9,
                "num_events": 600,
                "method": "analytic",
            },
            grid={"history_length": [2, 8], "loss_event_rate": [0.05, 0.2]},
            seed=7,
        )
        pool = pool_run(spec)
        pool.raise_errors()
        batched = run_campaign_batched(spec)
        assert batched.num_executed == 4
        assert canonical_values(batched) == canonical_values(pool)

    def test_single_valued_grid_axis_batches_and_matches_pool(self, pool_run):
        """A single-valued grid axis enters the spec's seed derivation;
        the in-process run derives the same per-point seeds as the pool
        and so returns identical values."""
        spec = ExperimentSpec(
            name="single-axis",
            runner="montecarlo-basic",
            base={"formula": "sqrt", "num_events": 500},
            grid={
                "history_length": [2, 8],
                "loss_event_rate": [0.1],
                "coefficient_of_variation": [0.9, 1.0],
            },
            seed=2,
        )
        pool = pool_run(spec)
        pool.raise_errors()
        batched = run_campaign_batched(spec, workers=2)
        assert len(pool.results) == len(batched.results) == 4
        for a, b in zip(pool.results, batched.results):
            assert a.point.params == b.point.params
            assert a.point.seed == b.point.seed
        assert canonical_values(batched) == canonical_values(pool)

    def test_integer_typed_grid_values_match_pool(self, pool_run):
        """An int grid value (the 1 a JSON spec naturally carries for cv)
        seeds its point from the spec expansion on both paths, so the
        in-process run equals the pool."""
        spec = ExperimentSpec(
            name="int-cv",
            runner="montecarlo-basic",
            base={"formula": "sqrt", "loss_event_rate": 0.1,
                  "num_events": 500},
            grid={
                "history_length": [2, 8],
                "coefficient_of_variation": [0.5, 1],  # int 1
            },
            seed=2,
        )
        pool = pool_run(spec)
        pool.raise_errors()
        batched = run_campaign_batched(spec)
        assert canonical_values(batched) == canonical_values(pool)

    def test_loss_process_instance_grid_matches_pool(self, pool_run):
        """Process instances in a grid run in process unpickled and on
        the pool pickled; both canonicalise via str() into the same
        seeds and return the same values."""
        instance = api.LOSS_PROCESSES.from_config(
            {"kind": "gamma", "mean": 12.0, "cv": 0.8})
        spec = ExperimentSpec(
            name="instance-grid",
            runner="montecarlo-basic",
            base={"formula": "sqrt", "num_events": 400},
            grid={
                "history_length": [2, 8],
                "loss_process": [instance,
                                 {"kind": "lognormal", "mean": 20.0,
                                  "cv": 0.6}],
            },
            seed=19,
        )
        pool = pool_run(spec)
        pool.raise_errors()
        batched = run_campaign_batched(spec)
        assert canonical_values(batched) == canonical_values(pool)

    def test_failing_point_falls_back_to_pool_isolation(self):
        """One correlated process under method='analytic' fails its
        points only; the rest of the grid completes."""
        spec = ExperimentSpec(
            name="mixed-iid",
            runner="montecarlo-basic",
            base={"formula": {"kind": "sqrt", "rtt": 1.0},
                  "num_events": 400, "method": "analytic"},
            grid={
                "history_length": [2, 4],
                "loss_process": [
                    {"kind": "gamma", "mean": 12.0, "cv": 0.8},
                    {"kind": "two-phase", "good_mean": 40.0,
                     "bad_mean": 8.0, "switch_probability": 0.2},
                ],
            },
            seed=3,
        )
        campaign = run_campaign_batched(spec)
        assert campaign.num_points == 4
        assert campaign.num_executed == 2   # the gamma points succeed
        assert campaign.num_failed == 2     # the correlated ones error
        for failure in campaign.failures():
            assert "i.i.d." in failure.error

    def test_non_montecarlo_spec_falls_back(self):
        spec = ExperimentSpec(
            name="fallback",
            runner="unit-failing",
            grid={"explode": [False, False], "value": [1, 2]},
        )
        campaign = run_campaign_batched(spec)
        assert campaign.num_points == 4
        assert campaign.num_executed == 4


class TestDumbbellBatchRunner:
    def test_replications_rerun_shared_config_with_derived_seeds(self):
        spec = ExperimentSpec(
            name="dumbbell-batch-unit",
            runner="dumbbell-batch",
            base={"replications": 2},
            grid={
                "scenario": [
                    {"kind": "ns2", "num_connections": 1, "duration": 15.0},
                    {"kind": "ns2", "num_connections": 2, "duration": 15.0},
                ]
            },
            seed=3,
        )
        campaign = ExperimentRunner().run(spec)
        campaign.raise_errors()
        assert campaign.num_points == 2
        for result, connections in zip(campaign.results, (1, 2)):
            value = result.value
            assert value["family"] == "ns2"
            assert value["num_connections"] == connections
            assert value["replications"] == 2
            assert len(value["runs"]) == 2
            seeds = {run["seed"] for run in value["runs"]}
            assert len(seeds) == 2  # per-replication derived seeds differ
            assert value["throughput_ratio"] > 0.0

    def test_single_replication_uses_point_seed_directly(self):
        from repro.experiments.registry import run_dumbbell_batch

        value = run_dumbbell_batch(
            {"scenario": {"kind": "ns2", "num_connections": 1,
                          "duration": 15.0}},
            seed=11,
        )
        assert value["replications"] == 1
        assert value["runs"][0]["seed"] == 11

    def test_preset_registered(self):
        spec = preset("fig5-ns2-batch")
        assert spec.runner == "dumbbell-batch"
        assert spec.num_points() == 3


class TestFlatDumbbellDeprecation:
    """The pre-registry flat dumbbell parameter form is gone."""

    def test_flat_parameters_rejected(self):
        from repro.experiments.registry import run_dumbbell_batch, run_dumbbell_scenario

        flat = {"family": "ns2", "num_connections": 1, "duration": 15.0}
        for runner in (run_dumbbell_scenario, run_dumbbell_batch):
            with pytest.raises(ValueError, match="'scenario' component config"):
                runner(dict(flat), seed=5)

        spec = ExperimentSpec(name="flat-dumbbell", runner="dumbbell",
                              base=flat, grid={}, seed=5)
        campaign = ExperimentRunner(workers=1).run(spec)
        assert [result.status for result in campaign.results] == ["error"]
        assert "'scenario' component config" in campaign.results[0].error

    def test_scenario_config_does_not_warn(self):
        import warnings

        from repro.experiments.registry import run_dumbbell_scenario

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            value = run_dumbbell_scenario(
                {"scenario": {"kind": "ns2", "num_connections": 1,
                              "duration": 15.0}},
                seed=5,
            )
        assert value["family"] == "ns2"
