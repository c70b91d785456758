"""Tests for the telemetry subsystem and its instrumentation points.

Covers the tracing/metrics core (span nesting, timing monotonicity,
always-on counters beside disabled spans, the histogram window of the
newest observations, exporters), the counters the result store, the
campaign runner, both event loops and the ``simulate_batch`` facade
emit with spans on and off, and the removal of the deprecation shims.
"""

import json
import time
import warnings

import pytest

from repro import telemetry
from repro.experiments.store import ResultStore


@pytest.fixture
def fresh_telemetry():
    """Enable a clean registry for the test, restore disabled-state after."""
    telemetry.enable(fresh=True)
    yield telemetry.get_registry()
    telemetry.disable()
    telemetry.reset()


# ----------------------------------------------------------------------
# Core: spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_records_wall_and_cpu(self, fresh_telemetry):
        with telemetry.span("work") as current:
            time.sleep(0.01)
        records = list(fresh_telemetry.spans("work"))
        assert len(records) == 1
        record = records[0]
        assert record["status"] == "ok"
        assert record["wall_s"] >= 0.01
        assert record["cpu_s"] >= 0.0
        # Wall time includes the sleep; CPU time does not (monotonicity
        # of the two clocks against each other).
        assert record["cpu_s"] <= record["wall_s"] + 0.05
        assert current.wall == record["wall_s"]

    def test_span_nesting_paths_and_depths(self, fresh_telemetry):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        records = list(fresh_telemetry.spans())
        paths = [(r["path"], r["depth"]) for r in records]
        # Children finish first; both nest under the outer span.
        assert paths == [
            ("outer/inner", 1),
            ("outer/inner", 1),
            ("outer", 0),
        ]

    def test_nested_wall_time_is_monotone(self, fresh_telemetry):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                time.sleep(0.005)
        inner = next(iter(fresh_telemetry.spans("inner")))
        outer = next(iter(fresh_telemetry.spans("outer")))
        assert 0.0 <= inner["wall_s"] <= outer["wall_s"]

    def test_span_error_tagging(self, fresh_telemetry):
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("nope")
        record = next(iter(fresh_telemetry.spans("boom")))
        assert record["status"] == "error"
        assert record["error"] == "ValueError"

    def test_items_attribute_derives_rate(self, fresh_telemetry):
        with telemetry.span("kernel", items=500) as current:
            time.sleep(0.002)
        assert current.attributes["items_per_s"] == pytest.approx(
            500 / current.wall
        )

    def test_span_histogram_observed(self, fresh_telemetry):
        with telemetry.span("timed"):
            pass
        samples = fresh_telemetry.histogram("span:timed")
        assert len(samples) == 1 and samples[0] >= 0.0


# ----------------------------------------------------------------------
# Core: disabled mode
# ----------------------------------------------------------------------
class TestDisabledMode:
    def test_disabled_span_is_shared_noop(self):
        assert not telemetry.enabled()
        first = telemetry.span("a", items=3)
        second = telemetry.span("b")
        # One shared object: no per-call allocation on the disabled path.
        assert first is second
        with first as active:
            active.set("key", "value")  # swallowed

    def test_disabled_spans_leave_the_helpers_recording(self):
        assert not telemetry.enabled()
        telemetry.incr("counter")
        telemetry.observe("histogram", 1.0)
        telemetry.set_gauge("gauge", 2.0)
        with telemetry.span("invisible"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {"counter": 1.0}
        assert snapshot["gauges"] == {"gauge": 2.0}
        # No span: histogram either -- only the observed one.
        assert list(snapshot["histograms"]) == ["histogram"]
        assert snapshot["histograms"]["histogram"]["count"] == 1
        assert snapshot["num_spans"] == 0

    def test_enable_fresh_resets(self, fresh_telemetry):
        telemetry.incr("stale")
        telemetry.enable(fresh=True)
        assert telemetry.get_registry().counter("stale") == 0.0


# ----------------------------------------------------------------------
# Core: counters / exporters
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates(self, fresh_telemetry):
        telemetry.incr("hits")
        telemetry.incr("hits", 4)
        assert fresh_telemetry.counter("hits") == 5.0

    def test_histogram_keeps_the_newest_observations(self):
        for value in range(4106):
            telemetry.observe("histogram", value)
        summary = telemetry.snapshot()["histograms"]["histogram"]
        assert summary["count"] == 4096
        assert summary["min"] == 10.0
        assert summary["max"] == 4105.0

    def test_export_json_roundtrip(self, fresh_telemetry, tmp_path):
        telemetry.incr("exported", 2)
        with telemetry.span("section"):
            pass
        path = tmp_path / "telemetry.json"
        telemetry.export_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["counters"]["exported"] == 2.0
        assert "span:section" in payload["histograms"]

    def test_export_spans_jsonl(self, fresh_telemetry, tmp_path):
        with telemetry.span("first"):
            pass
        with telemetry.span("second"):
            pass
        path = tmp_path / "spans.jsonl"
        telemetry.export_spans_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["first", "second"]


# ----------------------------------------------------------------------
# Instrumentation: result store hit/miss/retry counters
# ----------------------------------------------------------------------
class TestStoreCounters:
    def test_hit_miss_retry_classification(self, fresh_telemetry, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        store.put({"key": "good", "status": "ok", "value": {"x": 1.0}})
        store.put({"key": "bad", "status": "error", "error": "boom"})

        assert store.get_ok("good") is not None   # hit
        assert store.get_ok("absent") is None     # miss
        assert store.get_ok("bad") is None        # retry (failed record)
        assert store.get_ok("good") is not None   # second hit

        assert store.skipped == 0
        registry = fresh_telemetry
        assert registry.counter("store.hit") == 2.0
        assert registry.counter("store.miss") == 1.0
        assert registry.counter("store.retry") == 1.0
        assert registry.counter("store.put") == 2.0

    def test_store_counts_without_telemetry(self, tmp_path):
        assert not telemetry.enabled()
        store = ResultStore(str(tmp_path / "store.jsonl"))
        store.put({"key": "good", "status": "ok", "value": {}})
        store.get_ok("good")
        store.get_ok("absent")
        registry = telemetry.get_registry()
        assert registry.counter("store.hit") == 1.0
        assert registry.counter("store.miss") == 1.0
        assert registry.counter("store.put") == 1.0


# ----------------------------------------------------------------------
# Instrumentation: campaign runner spans
# ----------------------------------------------------------------------
class TestCampaignTelemetry:
    def test_smoke_campaign_spans_and_counters(self, fresh_telemetry):
        from repro.experiments import ExperimentRunner, preset

        campaign = ExperimentRunner().run(preset("smoke"))
        campaign.raise_errors()
        registry = fresh_telemetry
        assert registry.counter("experiments.points.ok") == 4.0
        campaign_spans = list(registry.spans("experiments.campaign"))
        assert len(campaign_spans) == 1
        assert campaign_spans[0]["attributes"]["executed"] == 4
        point_spans = list(registry.spans("experiments.point"))
        assert len(point_spans) == 4
        assert all(
            s["path"] == "experiments.campaign/experiments.point"
            for s in point_spans
        )
        assert len(registry.histogram("experiments.compute")) == 4

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pool"])
    def test_campaign_counts_without_spans(self, pool, pool_run):
        from repro.experiments import ExperimentRunner, preset

        assert not telemetry.enabled()
        spec = preset("smoke")
        campaign = pool_run(spec) if pool else ExperimentRunner().run(spec)
        campaign.raise_errors()
        registry = telemetry.get_registry()
        assert registry.counter("experiments.points.ok") == 4.0
        assert len(registry.histogram("experiments.compute")) == 4
        assert len(registry.histogram("experiments.queue_wait")) == (
            4 if pool else 0
        )
        assert list(registry.spans()) == []
        assert registry.histogram("span:experiments.point") == []


# ----------------------------------------------------------------------
# Instrumentation: the event loops
# ----------------------------------------------------------------------
class TestEventLoopCounters:
    def test_simulator_run_counts_without_spans(self):
        from repro.simulator.engine import Simulator

        assert not telemetry.enabled()
        simulator = Simulator(seed=1)
        simulator.schedule_periodic(0.5, lambda: None)
        simulator.run(until=10.0)
        registry = telemetry.get_registry()
        assert simulator.events_processed == 20
        assert registry.counter("simulator.runs") == 1.0
        assert registry.counter("simulator.events") == 20.0
        assert len(registry.histogram("simulator.run_wall")) == 1
        assert registry.snapshot()["num_spans"] == 0

    def test_flowsim_core_run_counts_without_spans(self):
        from repro.flowsim.core import FlowSimCore

        assert not telemetry.enabled()
        core = FlowSimCore()
        core.schedule_periodic(1.0, lambda: None)
        core.run(until=5.0)
        registry = telemetry.get_registry()
        assert core.events_processed == 5
        assert registry.counter("flowsim.runs") == 1.0
        assert registry.counter("flowsim.events_processed") == 5.0


# ----------------------------------------------------------------------
# Registry construction path (the deprecated shims are gone)
# ----------------------------------------------------------------------
class TestDeprecationShims:
    def test_shims_are_removed(self):
        import repro.core.formulas as formulas_module
        import repro.experiments as experiments_module

        assert not hasattr(formulas_module, "make_formula")
        assert not hasattr(experiments_module, "formula_to_params")
        assert not hasattr(experiments_module, "formula_from_params")

    def test_registry_path_does_not_warn(self):
        from repro.api import FORMULAS

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FORMULAS.from_config({"kind": "sqrt", "rtt": 1.0})


# ----------------------------------------------------------------------
# Instrumentation: the batch facade
# ----------------------------------------------------------------------
class TestBatchCounters:
    @staticmethod
    def _eight_row_batch():
        from repro import api

        config = api.BatchConfig(
            formulas=["sqrt", "pftk-simplified"],
            history_lengths=[2, 8],
            loss_event_rates=[0.05, 0.2],
            coefficients_of_variation=[0.999],
            num_events=2000,
            seed=3,
        )
        assert len(api.simulate_batch(config).results) == 8

    def test_simulate_batch_counts_calls_and_rows(self, fresh_telemetry):
        self._eight_row_batch()
        assert fresh_telemetry.counter("api.batch.calls") == 1.0
        assert fresh_telemetry.counter("api.batch.rows") == 8.0

    def test_disabled_simulate_batch_still_counts(self):
        assert not telemetry.enabled()
        self._eight_row_batch()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["api.batch.calls"] == 1.0
        assert snapshot["counters"]["api.batch.rows"] == 8.0
        assert snapshot["num_spans"] == 0
