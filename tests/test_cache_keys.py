"""Property-based cache-key tests and store canonicalisation regressions.

The memoisation tier's contract is that a cache key is a pure function
of the *work*, not of how the request was spelled: registry round-trips,
JSON round-trips, dict insertion order, tuple-vs-list values and
component instances must all map to one key, while changing any single
field must change it.  These properties are exercised for every
registered FORMULAS / LOSS_PROCESSES / SCENARIOS kind over seeded random
configs (see ``make_random_config`` in ``conftest.py`` -- a tiny
hypothesis-free property harness).
"""

import json

import numpy as np
import pytest

from repro import api, telemetry
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    ResultStore,
    canonical_json,
    canonical_payload,
    grid,
    result_key,
)
from repro.experiments.store import RECORD_SCHEMA_VERSION
from repro.lossprocess import ShiftedExponentialIntervals
from repro.service import prediction_key
from tests.conftest import make_random_config

REGISTRIES = {
    "formula": api.FORMULAS,
    "loss-process": api.LOSS_PROCESSES,
    "scenario": api.SCENARIOS,
    "latency-model": api.LATENCY_MODELS,
}

CASES = [
    (family, kind)
    for family, registry in REGISTRIES.items()
    for kind in registry.kinds()
]


def _mutate(value):
    """A value guaranteed to differ from ``value`` under canonical JSON."""
    if isinstance(value, bool):
        return not value
    if value is None:
        return "mutated"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "-mutated"
    if isinstance(value, (list, tuple)):
        return list(value) + ["mutated"]
    if isinstance(value, dict):
        return {**value, "mutated": True}
    return f"mutated-{value!r}"


@pytest.mark.parametrize(("family", "kind"), CASES)
class TestRegisteredKindKeyProperties:
    """Key properties over every registered component kind."""

    def test_registry_round_trip_preserves_key(self, family, kind):
        registry = REGISTRIES[family]
        rng = np.random.default_rng(20020814)
        for _ in range(5):
            config = make_random_config(registry, kind, rng)
            canonical = registry.to_config(registry.from_config(config))
            again = registry.to_config(registry.from_config(canonical))
            assert result_key(canonical) == result_key(again)

    def test_json_round_trip_preserves_key(self, family, kind):
        registry = REGISTRIES[family]
        rng = np.random.default_rng(7)
        for _ in range(5):
            config = make_random_config(registry, kind, rng)
            replayed = json.loads(json.dumps(canonical_payload(config)))
            assert result_key(config) == result_key(replayed)

    def test_each_field_contributes_to_the_key(self, family, kind):
        registry = REGISTRIES[family]
        rng = np.random.default_rng(11)
        config = make_random_config(registry, kind, rng)
        base_key = result_key(config)
        fields = [name for name in config if name != "kind"]
        for name in fields:
            mutated = {**config, name: _mutate(config[name])}
            assert result_key(mutated) != base_key, (
                f"mutating {family}:{kind} field {name!r} did not change "
                "the cache key"
            )
        # The kind itself is part of the key too.
        assert result_key({**config, "kind": config["kind"] + "-x"}) != base_key


class TestCanonicalPayload:
    def test_insertion_order_is_irrelevant(self):
        a = {"runner": "x", "params": {"b": 1, "a": {"d": 2, "c": 3}}}
        b = {"params": {"a": {"c": 3, "d": 2}, "b": 1}, "runner": "x"}
        assert canonical_json(a) == canonical_json(b)
        assert result_key(a) == result_key(b)

    def test_tuples_hash_like_their_json_list_form(self):
        assert result_key({"v": (1, 2, 3)}) == result_key({"v": [1, 2, 3]})

    def test_component_instances_are_stable_across_objects(self):
        # Two equal instances must produce one key (the old default=str
        # fallback embedded the memory address, so they never matched).
        first = {"p": ShiftedExponentialIntervals(shift=1.0, rate=0.5)}
        second = {"p": ShiftedExponentialIntervals(shift=1.0, rate=0.5)}
        assert result_key(first) == result_key(second)
        assert "object at 0x" not in canonical_json(first)

    def test_numpy_scalars_collapse_to_python_numbers(self):
        a = {"n": np.int64(7), "x": np.float64(0.25)}
        b = {"n": 7, "x": 0.25}
        assert result_key(a) == result_key(b)

    def test_non_finite_floats_are_nullified(self):
        assert canonical_json({"x": float("nan")}) == '{"x":null}'

    def test_json_native_payloads_keep_their_pre_promotion_keys(self):
        # The canonicalisation refactor must not invalidate existing
        # JSONL stores: for JSON-native payloads the canonical text is
        # exactly the old sort_keys dumps.
        payload = {"runner": "r", "params": {"a": 1, "b": [0.5, 2]}, "seed": 3}
        legacy = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str
        )
        assert canonical_json(payload) == legacy


class TestStoreKeyRegression:
    """Satellite fix: reordered-but-equal specs hit the same cache entry."""

    @staticmethod
    def _spec(name, base):
        return ExperimentSpec(
            name=name,
            runner="montecarlo-basic",
            base=base,
            grid=grid(loss_event_rate=[0.05, 0.2]),
            seed=3,
        )

    def test_reordered_specs_share_point_keys(self):
        ordered = self._spec("a", {
            "formula": {"kind": "sqrt", "rtt": 1.0},
            "coefficient_of_variation": 0.9,
            "num_events": 500,
            "history_length": 4,
        })
        reordered = self._spec("b", {
            "history_length": 4,
            "num_events": 500,
            "formula": {"rtt": 1.0, "kind": "sqrt"},
            "coefficient_of_variation": 0.9,
        })
        keys = [point.key() for point in ordered.expand()]
        assert keys == [point.key() for point in reordered.expand()]

    def test_reordered_spec_hits_the_same_cache_entries(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        base = {
            "formula": {"kind": "sqrt", "rtt": 1.0},
            "coefficient_of_variation": 0.9,
            "num_events": 500,
            "history_length": 4,
        }
        first = ExperimentRunner(store=path).run(self._spec("first", base))
        assert first.num_executed == 2 and first.num_cached == 0

        reordered = dict(reversed(list(base.items())))
        assert list(reordered) != list(base)  # genuinely different order
        runner = ExperimentRunner(store=path)
        second = runner.run(self._spec("second", reordered))
        assert second.num_executed == 0 and second.num_cached == 2
        assert telemetry.get_registry().counter("store.hit") == 2
        assert [r.value for r in second.results] == [
            r.value for r in first.results
        ]

    def test_tuple_valued_params_hit_list_valued_cache_entries(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        spec_list = ExperimentSpec(
            name="lists", runner="unit-echo",
            base={"values": [1, 2, 3]}, grid=grid(scale=[1.0]), seed=1,
        )
        spec_tuple = ExperimentSpec(
            name="tuples", runner="unit-echo",
            base={"values": (1, 2, 3)}, grid=grid(scale=[1.0]), seed=1,
        )
        assert (
            spec_list.expand()[0].key() == spec_tuple.expand()[0].key()
        )

    def test_put_stamps_the_record_schema_version(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(str(path))
        store.put({"key": "k", "status": "ok", "value": {"x": 1.0}})
        record = json.loads(path.read_text().strip())
        assert record["schema_version"] == RECORD_SCHEMA_VERSION


class TestPredictionKeyCanonicalisation:
    def test_shorthand_and_explicit_process_share_a_key(self):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.9)
        shorthand = api.SimConfig(
            formula="sqrt", loss_event_rate=0.1,
            coefficient_of_variation=0.9, history_length=8, seed=1,
        )
        explicit = api.SimConfig(
            formula={"kind": "sqrt", "rtt": 1.0},
            loss_process=api.LOSS_PROCESSES.to_config(process),
            history_length=8, seed=1,
        )
        assert prediction_key(shorthand) == prediction_key(explicit)

    def test_any_field_difference_separates_keys(self):
        def config(**overrides):
            payload = {
                "formula": "sqrt", "loss_event_rate": 0.1,
                "coefficient_of_variation": 0.9, "history_length": 8,
                "num_events": 1000, "seed": 1,
            }
            payload.update(overrides)
            return api.SimConfig(**payload)

        base = prediction_key(config())
        assert prediction_key(config(seed=2)) != base
        assert prediction_key(config(loss_event_rate=0.2)) != base
        assert prediction_key(config(history_length=4)) != base
        assert prediction_key(config(num_events=2000)) != base
        assert prediction_key(config(control="comprehensive")) != base
        assert prediction_key(config(method="analytic")) != base
        assert prediction_key(config(formula="pftk-simplified")) != base
