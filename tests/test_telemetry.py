"""Tests for the telemetry subsystem and its instrumentation points.

Covers the tracing/metrics core (span nesting, timing monotonicity,
disabled-mode no-ops, exporters), the counters the result store and
campaign runner emit, the deprecation shims the observability PR turned
on, and the ``repro.cli bench`` surface.
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

    def test_disabled_helpers_record_nothing(self):
        assert not telemetry.enabled()
        telemetry.reset()
        telemetry.incr("counter")
        telemetry.observe("histogram", 1.0)
        telemetry.set_gauge("gauge", 2.0)
        with telemetry.span("invisible"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}
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

        assert store.stats == {
            "hits": 2, "misses": 1, "retries": 1, "puts": 2, "skipped": 0,
        }
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
        assert store.stats["hits"] == 1
        assert store.stats["misses"] == 1
        # ... but the global registry stays untouched while disabled.
        assert telemetry.get_registry().counter("store.hit") == 0.0


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
# Bench CLI surface
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_bench_dry_run(self, capsys):
        from repro.cli import main

        assert main(["bench", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "kernel-montecarlo-batch" in output
        assert "campaign-smoke" in output
        assert "dry run" in output

    @staticmethod
    def _install_fake_timer(monkeypatch):
        # Replace the bench timer hook with a deterministic fake that
        # advances one millisecond per reading: every measurement of
        # every benchmark becomes exactly 0.001s, so back-to-back runs
        # at --repeats 1 compare at ratio 1.0 under the *default*
        # threshold -- no wall-clock jitter, no widened gate.
        from itertools import count

        from repro import bench

        ticks = count()
        monkeypatch.setattr(bench, "_TIMER", lambda: next(ticks) * 1e-3)

    def test_bench_quick_records_and_compares(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.cli import main

        self._install_fake_timer(monkeypatch)
        argv = ["bench", "--suite", "quick", "--repeats", "1", "--warmup",
                "0", "--quiet", "--dir", str(tmp_path)]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert "starts the trajectory" in first
        payload = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert payload["schema_version"] == 1
        entry = payload["benchmarks"]["kernel-montecarlo-batch"]
        assert entry["median_s"] == pytest.approx(1e-3)
        assert entry["telemetry"]["counters"]["api.batch.calls"] == 1.0

        assert main(list(argv) + ["--check"]) == 0
        second = capsys.readouterr().out
        assert "Comparison vs" in second
        assert "REGRESSION" not in second
        assert (tmp_path / "BENCH_2.json").exists()

    def test_bench_service_suite_deterministic_at_one_repeat(
            self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        self._install_fake_timer(monkeypatch)
        argv = ["bench", "--suite", "service", "--repeats", "1",
                "--warmup", "0", "--quiet", "--dir", str(tmp_path)]
        assert main(list(argv)) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert set(payload["benchmarks"]) == {"prediction-service"}
        assert payload["benchmarks"]["prediction-service"][
            "median_s"] == pytest.approx(1e-3)

        # The gate passes at the default threshold: the medians of the
        # two runs are identical by construction.
        assert main(list(argv) + ["--check"]) == 0
        second = capsys.readouterr().out
        assert "Comparison vs" in second
        assert "REGRESSION" not in second

    def test_bench_regression_gate(self, tmp_path, capsys):
        from repro import bench

        baseline = {"benchmarks": {"k": {"median_s": 1.0}}}
        current = {"benchmarks": {"k": {"median_s": 1.5}}}
        rows = bench.compare(baseline, current, threshold=0.30)
        assert rows[0]["status"] == "REGRESSION"
        rows = bench.compare(baseline, current, threshold=0.60)
        assert rows[0]["status"] == "ok"
        rows = bench.compare(current, baseline, threshold=0.30)
        assert rows[0]["status"] == "improved"
