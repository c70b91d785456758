"""The ``figure-campaign`` workload: figure regeneration via ``repro.experiments``.

Phases, in order:

* ``pool`` -- two seeded 24-point specs (montecarlo-basic at 5000
  events, montecarlo-comprehensive at 2000) through
  ``ExperimentRunner(workers=2, store=...)`` against a JSONL store that
  set-up pre-filled with 20k unrelated records (15k keys, 5k of them
  superseded);
* ``replay`` -- re-open the store and re-run both specs, 5 times:
  every point must come back ``cached`` with the pool's values;
* ``dumbbell`` -- ``fig5-ns2-batch`` (packet simulator) through
  ``ExperimentRunner(workers=2)``;
* ``batched`` -- ``run_campaign_batched`` over five figure presets with
  fresh seeds per pass, repeated for the rest of the round's time.

The untraced pass runs two rounds of all four phases; each time reported
is the median of its repetitions, each scaled by the reference kernel timed
just before it (:mod:`perfbench.calibration`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from typing import Any, Dict, List, Tuple

from .accounting import Phase, account, overhead
from .calibration import Speed, scaled, speed_note
from .common import (
    Check,
    Report,
    derive_seed,
    make_rng,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    work_dir,
)
from .layers import kernel_metrics, kernel_targets
from .tracing import Target, Tracer, layer_self_times, span_samples, span_wall

NAME = "figure-campaign"
LOSS_RATES = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2]
BATCHED_PRESETS = ("fig3-pftk", "fig3-sqrt", "fig4-low-loss", "fig4-high-loss", "fig-shortflow")
DUMBBELL_PRESET = "fig5-ns2-batch"
PREFILL_KEYS = 15_000
PREFILL_SUPERSEDED = 5_000
REPLAYS = 5
#: Rounds of all four phases in the untraced pass (the traced pass runs one).
ROUNDS = 2
SETUPS = 5


def pool_specs(seed: int, tiny: bool = False) -> List[Any]:
    from repro.experiments.spec import ExperimentSpec

    rates = LOSS_RATES[:2] if tiny else LOSS_RATES
    specs = []
    for runner, events in (("montecarlo-basic", 5000), ("montecarlo-comprehensive", 2000)):
        specs.append(ExperimentSpec(
            name=f"perfbench-{runner}",
            runner=runner,
            base={"formula": {"kind": "pftk-simplified", "rtt": 1.0},
                  "num_events": events // 10 if tiny else events},
            grid={"loss_event_rate": rates, "coefficient_of_variation": [0.5, 0.999],
                  "history_length": [2, 8]},
            seed=derive_seed(seed, NAME, "pool", runner) % 2**31,
        ))
    return specs


def dumbbell_spec(seed: int, tiny: bool = False):
    from repro.experiments.registry import preset

    spec = preset(DUMBBELL_PRESET)
    if tiny:
        spec = dataclasses.replace(spec, grid={"scenario": [
            {"kind": "ns2", "num_connections": 1, "duration": 5.0}]})
    return dataclasses.replace(spec, seed=derive_seed(seed, NAME, "dumbbell") % 2**31)


def batched_specs(seed: int, index: int) -> List[Any]:
    from repro.experiments.registry import preset

    return [
        dataclasses.replace(preset(name), seed=derive_seed(seed, NAME, "batched", index, name) % 2**31)
        for name in BATCHED_PRESETS
    ]


def write_prefill(path: str, seed: int, keys: int = PREFILL_KEYS,
                  superseded: int = PREFILL_SUPERSEDED) -> None:
    """Write ``keys + superseded`` unrelated runner-shaped records."""
    rng = make_rng(seed, NAME, "prefill")
    key_bits = rng.integers(0, 2**63, size=(keys, 4), dtype="int64")
    rates = rng.uniform(0.001, 0.4, size=keys)
    cvs = rng.uniform(0.1, 1.0, size=keys)
    values = rng.uniform(0.3, 1.1, size=keys + superseded)
    later = rng.choice(keys, size=superseded, replace=False)
    order = list(range(keys)) + [int(index) for index in later]
    with open(path, "w", encoding="utf-8") as handle:
        for row, index in enumerate(order):
            record = {
                "key": "".join(f"{int(part) & (2**64 - 1):016x}" for part in key_bits[index]),
                "spec_name": f"prefill-{index % 97}",
                "runner": "montecarlo-basic",
                "params": {"formula": {"kind": "sqrt", "rtt": 1.0},
                           "loss_event_rate": float(rates[index]),
                           "coefficient_of_variation": float(cvs[index]),
                           "history_length": 8, "num_events": 20000},
                "axes": {"loss_event_rate": float(rates[index])},
                "seed": int(index),
                "status": "ok",
                "value": {"normalized_throughput": float(values[row]),
                          "throughput": float(values[row]) * 3.0, "num_events": 20000},
                "error": None,
                "duration": 0.1,
                "schema_version": 2,
            }
            handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _pool(specs, store, workers: int, check: Check) -> Tuple[float, list]:
    from repro.experiments.runner import ExperimentRunner

    begin = time.perf_counter()
    results = [ExperimentRunner(workers=workers, store=store).run(spec) for spec in specs]
    wall = time.perf_counter() - begin
    for campaign in results:
        for point in campaign.results:
            check.count(point.status == "ok", f"pool point {point.point.index}: {point.status} {point.error}")
    return wall, results


def _replay(specs, path: str, pooled, check: Check, tracer: Tracer = None) -> Tuple[float, Any]:
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import ResultStore, canonical_json

    begin = time.perf_counter()
    if tracer is None:
        store = ResultStore(path)
    else:
        with tracer.span("experiments.store.load", "experiments.store"):
            store = ResultStore(path)
    results = [ExperimentRunner(workers=2, store=store).run(spec) for spec in specs]
    wall = time.perf_counter() - begin
    for campaign, original in zip(results, pooled):
        for point, first in zip(campaign.results, original.results):
            check.count(
                point.status == "cached"
                and canonical_json(point.value) == canonical_json(first.value),
                f"replay point {point.point.index}: {point.status}",
            )
    return wall, store


def _dumbbell(spec, workers: int, check: Check) -> float:
    from repro.experiments.runner import ExperimentRunner

    begin = time.perf_counter()
    campaign = ExperimentRunner(workers=workers).run(spec)
    wall = time.perf_counter() - begin
    for point in campaign.results:
        check.count(point.status == "ok", f"dumbbell point {point.point.index}: {point.error}")
    return wall


def _batched_pass(seed: int, index: int, check: Check) -> Tuple[float, int]:
    from repro.experiments import registry

    specs = batched_specs(seed, index)
    begin = time.perf_counter()
    results = [registry.run_campaign_batched(spec, workers=2) for spec in specs]
    wall = time.perf_counter() - begin
    points = 0
    for spec, campaign in zip(specs, results):
        points += campaign.num_points
        check.count(
            campaign.num_failed == 0 and campaign.num_points == spec.num_points(),
            f"batched {spec.name}: {campaign.num_failed} failed",
        )
    return wall, points


def _phases(seed, seconds, template, specs, dumbbell, check, speed, tracer=None, tiny=False,
            rounds=1):
    """``rounds`` passes over all four phases, spread over ``seconds``.

    Each round computes the same pool and dumbbell points again (the pool
    against a fresh copy of the pre-filled store), so their medians
    average over the run; batched passes fill each round's share of the
    measuring time.  With a tracer, each phase's spans are snapshotted.
    """
    from repro.experiments.store import ResultStore

    workers = 2 if tracer is None else 1
    path = os.path.join(os.path.dirname(template), "store.jsonl")
    started = time.perf_counter()
    out: Dict[str, Any] = {"snapshots": {}, "compute_s": [], "pool_s": [], "replay_s": [],
                           "dumbbell_s": [], "batched": [], "refs": {}}

    def ref(phase):
        # The reference kernel, timed just before each timed operation.
        out["refs"].setdefault(phase, []).append(speed.sample())

    def snap(phase):
        if tracer is not None:
            out["snapshots"][phase] = tracer.snapshot()

    for round_index in range(rounds):
        shutil.copyfile(template, path)
        store = ResultStore(path)
        snap("setup")
        ref("pool")
        wall, pooled = _pool(specs, store, workers, check)
        out["pool_s"].append(wall)
        out["compute_s"].append(sum(point.duration for c in pooled for point in c.results))
        out["pool_points"] = sum(c.num_points for c in pooled)
        snap("pool")
        for _ in range(REPLAYS):
            ref("replay")
            wall, replayed = _replay(specs, path, pooled, check, tracer)
            out["replay_s"].append(wall)
        out["records_loaded"] = len(replayed)
        snap("replay")
        ref("dumbbell")
        out["dumbbell_s"].append(_dumbbell(dumbbell, workers, check))
        out["dumbbell_points"] = dumbbell.num_points()
        snap("dumbbell")
        deadline = started + seconds * (round_index + 1) / rounds
        passes = 0
        while (time.perf_counter() < deadline and not tiny) or passes < 2:
            ref("batched")
            out["batched"].append(_batched_pass(seed, len(out["batched"]), check))
            passes += 1
        snap("batched")
    return out


def _end_to_end(out) -> Dict[str, float]:
    refs = out["refs"]
    replay = scaled(out["replay_s"], refs["replay"])
    pool = scaled(out["pool_s"], refs["pool"])
    dumbbell = scaled(out["dumbbell_s"], refs["dumbbell"])
    pool_points = out["pool_points"]
    batched_wall = scaled([wall for wall, _ in out["batched"]], refs["batched"])
    batched_points = out["batched"][0][1]
    return {
        "light_op_ms": 1000.0 * replay / pool_points,
        "heavy_op_ms": 1000.0 * (pool + dumbbell) / (pool_points + out["dumbbell_points"]),
        "bulk_per_s": batched_points / batched_wall,
        "pool_points_per_s": pool_points / pool,
        "store_replay_s": replay,
        "batched_points_per_s": batched_points / batched_wall,
        "dumbbell_points_per_s": out["dumbbell_points"] / dumbbell,
    }


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Report:
    report = Report(NAME)
    directory = work_dir(f"campaign-{os.getpid()}")
    try:
        speed = Speed()
        setups: List[float] = []
        setup_refs: List[float] = []
        keys, superseded = (300, 100) if tiny else (PREFILL_KEYS, PREFILL_SUPERSEDED)
        for attempt in range(SETUPS):
            setup_refs.append(speed.sample())
            begin = time.perf_counter()
            specs = pool_specs(seed, tiny)
            dumbbell = dumbbell_spec(seed, tiny)
            template = os.path.join(directory, f"prefill-{attempt}.jsonl")
            write_prefill(template, seed, keys, superseded)
            setups.append(time.perf_counter() - begin)

        out = _phases(seed, seconds, template, specs, dumbbell, report.check, speed, tiny=tiny,
                      rounds=ROUNDS)
        e2e = _end_to_end(out)
        report.note(f"rounds: {ROUNDS}; batched passes: {len(out['batched'])}; "
                    f"replays: {len(out['replay_s'])}")
        report.note(speed_note(speed))
        for name, unit in (("pool_points_per_s", "1/s"), ("store_replay_s", "s"),
                           ("batched_points_per_s", "1/s"), ("dumbbell_points_per_s", "1/s")):
            report.put("headline", name, e2e[name], unit)
        report.put("metrics", "light_op_ms", e2e["light_op_ms"], "ms")
        report.put("metrics", "heavy_op_ms", e2e["heavy_op_ms"], "ms")
        report.put("metrics", "bulk_per_s", e2e["bulk_per_s"], "1/s")
        report.put("metrics", "setup_s", scaled(setups, setup_refs), "s")
        if trace:
            _traced(report, seed, seconds, template, specs, dumbbell, speed, out, e2e, tiny)
        report.put("metrics", "peak_rss_mb", peak_rss_mb(), "MB")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return report


def _traced(report, seed, seconds, template, specs, dumbbell, speed, untraced_out, untraced,
            tiny):
    from repro.core.shortflow import Csa00LatencyModel
    from repro.experiments import registry
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import ResultStore
    from repro.simulator.engine import Simulator

    tracer = Tracer()
    seen_events: Dict[int, int] = {}

    def count_lookup(args, kwargs, result, wall, self_time):
        tracer.add("experiments.store.lookups", 1.0)
        tracer.add("experiments.store.hits", 0.0 if result is None else 1.0)

    def count_engine(args, kwargs, result, wall, self_time):
        simulator = args[0]
        before = seen_events.get(id(simulator), 0)
        seen_events[id(simulator)] = simulator.events_processed
        tracer.add("simulator.engine.events", float(simulator.events_processed - before))

    targets = kernel_targets(tracer) + [
        Target(ExperimentRunner, "run", "experiments.runner.run", "experiments.runner"),
        Target(ResultStore, "get_ok", "experiments.store.get_ok", "experiments.store",
               on_done=count_lookup),
        Target(ResultStore, "put", "experiments.store.put", "experiments.store"),
        Target(registry, "run_campaign_batched", "experiments.registry.run_campaign_batched",
               "experiments.registry"),
        Target(Csa00LatencyModel, "components", "core.shortflow.components", "core.shortflow"),
        Target(Simulator, "run", "simulator.engine.run", "simulator.engine", on_done=count_engine),
    ]
    with tracer.installed(targets):
        out = _phases(seed, seconds, template, specs, dumbbell, report.check, speed, tracer, tiny)
    snaps = out["snapshots"]
    traced = _end_to_end(out)
    report.note("pool and dumbbell phases of the traced pass ran serially "
                "(workers=1) so their points run under the wrappers")

    compute = median(untraced_out["compute_s"])
    report.put("layer_times", "experiments.runner.compute_s", compute, "s")
    report.put("layers", "experiments.runner.pool_busy_share",
               ratio(compute, 2 * median(untraced_out["pool_s"])), "ratio")
    replay = snaps["replay"]
    report.put("layer_times", "experiments.store.load_ms",
               1000.0 * percentile(span_samples(replay, "experiments.store.load"), 50), "ms")
    report.put("layers", "experiments.store.records_loaded", out["records_loaded"], "count")
    pool = snaps["pool"]
    report.put("layer_times", "experiments.store.put_us.p50",
               1e6 * percentile(span_samples(pool, "experiments.store.put"), 50), "us")
    report.put("layer_times", "experiments.store.get_ok_us.p50",
               1e6 * percentile(span_samples(replay, "experiments.store.get_ok"), 50), "us")
    report.put("layers", "experiments.store.hit_ratio",
               ratio(replay["counters"].get("experiments.store.hits", 0.0),
                     replay["counters"].get("experiments.store.lookups", 0.0)), "ratio")

    batched = snaps["batched"]
    registry_wall = span_wall(batched, "experiments.registry.run_campaign_batched")
    registry_self = batched["spans"].get("experiments.registry.run_campaign_batched", {}).get("self", 0.0)
    report.put("layers", "experiments.registry.batched_self_share",
               ratio(registry_self, registry_wall), "ratio")
    report.put("layer_times", "core.shortflow.components_ms",
               1000.0 * percentile(span_samples(batched, "core.shortflow.components"), 50), "ms")

    dumbbell_snap = snaps["dumbbell"]
    report.put("layers", "simulator.engine.events_per_s",
               ratio(dumbbell_snap["counters"].get("simulator.engine.events", 0.0),
                     span_wall(dumbbell_snap, "simulator.engine.run")), "1/s")

    # Scalar kernel figures come from the pool phase, batch figures from
    # the batched phase, so each reflects the path that phase exercises.
    scalar = kernel_metrics(pool)
    vector = kernel_metrics(batched)
    report.put("layer_times", "api.simulate.ms.p50", scalar["api.simulate.ms.p50"], "ms")
    report.put("layers", "montecarlo.scalar.events_per_s", scalar["montecarlo.scalar.events_per_s"], "1/s")
    report.put("layer_times", "api.simulate_batch.ms.p50", vector["api.simulate_batch.ms.p50"], "ms")
    report.put("layers", "api.simulate_batch.facade_share",
               vector["api.simulate_batch.facade_share"], "ratio")
    for name in ("montecarlo.vectorized.rows_per_s", "montecarlo.vectorized_analytic.rows_per_s"):
        report.put("layers", name, vector[name], "1/s")

    phases = [
        Phase("pool", out["pool_s"][0], layer_self_times(pool), "serial, workers=1"),
        Phase("replay", sum(out["replay_s"]), layer_self_times(replay)),
        Phase("dumbbell", out["dumbbell_s"][0], layer_self_times(dumbbell_snap), "serial, workers=1"),
        Phase("batched", sum(wall for wall, _ in out["batched"]), layer_self_times(batched)),
    ]
    account(report, phases)
    report.note("trace overhead compares the phases that run alike in both passes "
                "(replay, batched)")
    overhead(report, {k: untraced[k] for k in ("light_op_ms", "bulk_per_s")}, traced)
