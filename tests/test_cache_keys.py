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

import asyncio
import json

import numpy as np
import pytest

from repro import api, telemetry
from repro.api import components
from repro.experiments import (
    ExperimentRunner,
    ExperimentSpec,
    ResultStore,
    canonical_json,
    canonical_payload,
    grid,
    preset,
    result_key,
)
from repro.experiments.store import RECORD_SCHEMA_VERSION
from repro.lossprocess import ShiftedExponentialIntervals
from repro.service import (
    PredictionService,
    ServiceConfig,
    batch_request_key,
    prediction_key,
    start_service,
)
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

#: Every registered example of every component family in ``repro.api``.
EXAMPLES = [
    pytest.param(registry, kind, id=f"{registry.family.replace(' ', '-')}:{kind}")
    for registry in vars(components).values()
    if isinstance(registry, api.ComponentRegistry)
    for kind in registry.examples()
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

    @pytest.mark.parametrize(("registry", "kind"), EXAMPLES)
    def test_component_instances_are_stable_across_objects(self, registry, kind):
        # Two equal instances must produce one key: a str() fallback
        # embeds the memory address, so they would never match.
        first = {"p": registry.examples()[kind]}
        second = {"p": registry.examples()[kind]}
        assert first["p"] is not second["p"]
        assert result_key(first) == result_key(second)
        text = canonical_json(first)
        assert "object at 0x" not in text
        assert f'"__component__":"{type(first["p"]).__name__}"' in text

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


# ----------------------------------------------------------------------
# Golden keys and a golden hit body, recorded at commit 12f2a66.  Stores
# and caches are addressed by these digests: changing one orphans every
# record written under it, so a faster key path must leave every digest
# and every response byte as it is.
# ----------------------------------------------------------------------
def _request(**fields):
    payload = {"num_events": 1000, "seed": 1}
    payload.update(fields)
    return payload


_FORMULA_POINT = {"loss_event_rate": 0.1, "coefficient_of_variation": 0.9,
                  "history_length": 8}

#: One ``/predict`` request per registered formula, loss-process and
#: profile kind, plus the warm-set shape perfbench's predict-http sends.
GOLDEN_PREDICT_KEYS = {
    "formula:sqrt": (
        _request(formula={"kind": "sqrt", "rtt": 0.5}, **_FORMULA_POINT),
        "bbfa758c38ef1d297c22596cc3d6f81aacefa81e70014a1552efe4e5f05a8195",
    ),
    "formula:pftk-standard": (
        _request(formula={"kind": "pftk-standard", "rtt": 0.1}, **_FORMULA_POINT),
        "ae9e014b5718cbf58603d3077613dc5a3dee1ab9dafb97e58615b9be276f7fd0",
    ),
    "formula:pftk-simplified": (
        _request(formula={"kind": "pftk-simplified", "rtt": 2.0, "rto": 5.0},
                 **_FORMULA_POINT),
        "4164b19a51a1e5e764ca720f11305e5215172f8b4c50d215d5603a5e91d08abe",
    ),
    "formula:aimd": (
        _request(formula={"kind": "aimd", "alpha": 1.0, "beta": 0.5},
                 **_FORMULA_POINT),
        "8884e7a6f0490c0e6bec6b26d4c10800d5fba83510b86a723fed7c2080ada425",
    ),
    "formula:msmo97": (
        _request(formula={"kind": "msmo97", "rtt": 0.2}, **_FORMULA_POINT),
        "c24b5bdb1495ee0f21898f9d9a578c13110abd67f877aef71ea9d414884550fb",
    ),
    "loss-process:shifted-exponential": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "shifted-exponential", "loss_event_rate": 0.1,
            "coefficient_of_variation": 0.9}),
        "22c3d706f6cf633f3fccb596833e70e5be80dece84b309fe109412533173a912",
    ),
    "loss-process:deterministic": (
        _request(formula="sqrt", history_length=4, seed=2,
                 loss_process={"kind": "deterministic", "value": 12.5}),
        "42907567b84187ff2f79a1f7bb503c2e7229125a1d53f996c0bdbf08ace70e68",
    ),
    "loss-process:gamma": (
        _request(formula="sqrt", history_length=4, seed=2,
                 loss_process={"kind": "gamma", "mean": 20.0, "cv": 1.5}),
        "4c56c18f0599e867bc4fce98362a124cfd19f07b6d432a8e69d1f65c16e43f00",
    ),
    "loss-process:lognormal": (
        _request(formula="sqrt", history_length=4, seed=2,
                 loss_process={"kind": "lognormal", "mean": 10.0, "cv": 0.7}),
        "45b2464a09fa9b555c3988cadfcc4605bd8ea949627e58c095b4521c8a6de02a",
    ),
    "loss-process:empirical": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "empirical", "observations": [3.0, 7.0, 11.0, 5.0]}),
        "4fa324aca77ca690fd266ef635301588e4ea24b3d995e65125fc25e12dbe8ac3",
    ),
    "loss-process:geometric": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "geometric", "loss_probability": 0.1}),
        "01a3bc81bde055996e479b71fc5c4ef481dbd3bc3a14ad12eb2c5a8e9ca4a3b1",
    ),
    "loss-process:markov-modulated": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "markov-modulated",
            "transition_matrix": [[0.9, 0.1], [0.2, 0.8]],
            "phase_means": [50.0, 5.0]}),
        "560cb3c8e884e3db51f6ad494771836616370cf129d3904ad708223a8e423707",
    ),
    "loss-process:two-phase": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "two-phase", "good_mean": 40.0, "bad_mean": 8.0,
            "switch_probability": 0.2}),
        "2c9fbb2eb4642512afc61905d99324a5e3ef7b51d15d0703d7073778cf66ad47",
    ),
    "loss-process:gilbert": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "gilbert", "good_to_bad": 0.05, "bad_to_good": 0.4}),
        "59a8fd00e765b592739e0158f120a96733c03d07fd1feda832adba40eda892b9",
    ),
    "loss-process:trace": (
        _request(formula="sqrt", history_length=4, seed=2, loss_process={
            "kind": "trace", "intervals": [4.0, 9.0, 6.0, 14.0, 2.0]}),
        "16cfa305776e75e8f6b68995c621e3e24410eb655d9c4372e4a7480711c1d191",
    ),
    "profile:tfrc": (
        _request(formula="pftk-simplified", loss_event_rate=0.05, seed=3,
                 control="comprehensive",
                 profile={"kind": "tfrc", "history_length": 8}),
        "e166fc3f8bc4c51199e8c142184ce39ba7bfe50d9a69263726f398381e868810",
    ),
    "profile:uniform": (
        _request(formula="pftk-simplified", loss_event_rate=0.05, seed=3,
                 control="comprehensive",
                 profile={"kind": "uniform", "history_length": 4}),
        "8ae711cb1cbf598facf01a5128530c923984e006f15bfb4f033c96d352325a8c",
    ),
    "profile:custom": (
        _request(formula="pftk-simplified", loss_event_rate=0.05, seed=3,
                 control="comprehensive",
                 profile={"kind": "custom", "raw_weights": [4.0, 2.0, 1.0]}),
        "7e3ebd75d2643bbd74c66dbd9f6e7fd5e3a394385bf6675b7583bea20a70fc00",
    ),
    "perfbench-warm": (
        {"formula": {"kind": "pftk-simplified", "rtt": 1.0},
         "loss_event_rate": 0.02, "coefficient_of_variation": 0.999,
         "history_length": 8, "num_events": 2000, "control": "basic",
         "method": "montecarlo", "seed": 1234567},
        "1f535eb4e44baca0a6f92c18adab1e99d377bdfcb09af51f509efe3e1e9f6428",
    ),
}

GOLDEN_BATCH_KEYS = {
    "axes": (
        {"formulas": [{"kind": "sqrt", "rtt": 1.0}, "pftk-simplified"],
         "history_lengths": [2, 8], "loss_event_rates": [0.01, 0.05, 0.1, 0.2],
         "coefficients_of_variation": [0.5, 0.999], "num_events": 2000,
         "seed": 17, "share_noise": False},
        "9a6525ef43b7da8e69f550e46052e4b917f88d96c440652d9c8224c3c4c7ab8d",
    ),
    "loss-processes": (
        {"formulas": ["sqrt"], "history_lengths": [4],
         "loss_processes": [
             {"kind": "gamma", "mean": 20.0, "cv": 1.5},
             {"kind": "two-phase", "good_mean": 40.0, "bad_mean": 8.0,
              "switch_probability": 0.2}],
         "num_events": 1000, "seed": 5},
        "809a67844efdc8b5ce79b5c7b6d34b5eeaa953719b47c3814ba34ad9995721e8",
    ),
}

#: The first point of two presets: ``ExperimentPoint.key()``.
GOLDEN_POINT_KEYS = {
    "smoke": "357b7973ed051a96b3d0efff7acaadf75ebfbc3c6d56c80fdf1ad0165f1b1ab9",
    "fig3-pftk": "1cb4488d204027ad8878fea1498f90db3e1e2a2823974e55b29954991e7304ba",
}


class TestGoldenKeys:
    @pytest.mark.parametrize("name", sorted(GOLDEN_PREDICT_KEYS))
    def test_prediction_key(self, name):
        payload, digest = GOLDEN_PREDICT_KEYS[name]
        assert prediction_key(api.SimConfig.from_dict(payload)) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_BATCH_KEYS))
    def test_batch_request_key(self, name):
        payload, digest = GOLDEN_BATCH_KEYS[name]
        assert batch_request_key(api.BatchConfig.from_dict(payload)) == digest

    @pytest.mark.parametrize("name", sorted(GOLDEN_POINT_KEYS))
    def test_preset_point_key(self, name):
        assert preset(name).expand()[0].key() == GOLDEN_POINT_KEYS[name]


GOLDEN_HIT_REQUEST = {
    "formula": {"kind": "pftk-simplified", "rtt": 1.0},
    "loss_event_rate": 0.05,
    "coefficient_of_variation": 0.999,
    "history_length": 8,
    "num_events": 1000,
    "seed": 7,
}

#: Carries the kernel's output as well as the key: a deliberate change
#: to the Monte-Carlo kernel's numbers re-records it.
GOLDEN_HIT_BODY = (
    b'{"schema_version": 1, '
    b'"key": "ec141ec9a1c9e052dbed9880317f87d8171b910301fead3cadfc5e95e5efe00b", '
    b'"cache": "hit", "result": {"control": "basic", '
    b'"method": "montecarlo", '
    b'"formula": {"kind": "pftk-simplified", "rtt": 1.0, '
    b'"rto": 4.0, "b": 2, "c1": 1.1547005383792515, '
    b'"c2": 2.598076211353316}, '
    b'"loss_process": {"kind": "shifted-exponential", '
    b'"shift": 0.019999999999999574, "rate": 0.050050050050050046}, '
    b'"history_length": 8, "num_events": 1000, "seed": 7, '
    b'"loss_event_rate": 0.05, "coefficient_of_variation": 0.999, '
    b'"throughput": 2.013042667583355, '
    b'"normalized_throughput": 0.7864543955062766, '
    b'"empirical_loss_event_rate": 0.05103794225614785, '
    b'"interval_estimate_covariance": -1.7392201101168514, '
    b'"estimator_cv": 0.36411219840501485}}'
)


def test_hit_body_is_byte_identical_to_the_golden_body():
    async def exchange():
        service = PredictionService(ServiceConfig(workers=1))
        server = await start_service(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        body = json.dumps(GOLDEN_HIT_REQUEST).encode()
        request = (
            f"POST /predict HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode() + body
        responses = []
        try:
            for _ in range(2):  # a miss, then the hit
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(request)
                await writer.drain()
                responses.append(await reader.read())
                writer.close()
                await writer.wait_closed()
        finally:
            server.close()
            await server.wait_closed()
            service.close()
        return responses

    miss, hit = asyncio.run(exchange())
    assert b'"cache": "miss"' in miss
    head, _, body = hit.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert f"Content-Length: {len(body)}".encode() in head
    assert body == GOLDEN_HIT_BODY
