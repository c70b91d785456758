"""The ``flowsim`` workload: two flow-level runs through ``run_flowsim``.

* ``churn`` -- Poisson arrivals (500/s, mean lifetime 10 s): ~50k flows,
  ~5k concurrent.  Time goes to the event heap, generator callbacks and
  per-flow record finalisation.
* ``steady`` -- a fixed population of 10k flows: ~100 events, time goes
  to the vectorised per-tick rate sampling.

Both are 100 simulated seconds of sqrt at rtt 0.1, p = 0.1, cv = 0.6,
L = 8 and a 1 s interval.  The runs alternate until the measuring time
is used; every result is checked outside the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import time
from typing import Any, Dict, List, Tuple

from .accounting import Phase, account, overhead
from .calibration import Speed, scaled, speed_note
from .common import Check, Report, derive_seed, percentile, peak_rss_mb, ratio
from .tracing import Tracer, Target, layer_self_times, merge_snapshots, span_calls, span_samples, span_wall

NAME = "flowsim"
POINT = {
    "formula": {"kind": "sqrt", "rtt": 0.1},
    "loss_event_rate": 0.1,
    "coefficient_of_variation": 0.6,
    "history_length": 8,
}
#: Flowsim ``steady`` must land within this share of the Prop 1 prediction.
ANALYTIC_TOLERANCE = 0.05
#: Set-up is ~0.1 s, so it is repeated often enough for a steady median.
SETUPS = 9


def make_configs(seed: int, tiny: bool = False) -> Dict[str, Any]:
    from repro.flowsim.run import FlowSimConfig

    duration = 5.0 if tiny else 100.0
    scale = 0.05 if tiny else 1.0
    generators = {
        "churn": {"kind": "poisson-arrivals", "arrival_rate": 500.0 * scale, "mean_duration": 10.0},
        "steady": {"kind": "fixed-population", "num_flows": int(10_000 * scale)},
    }
    return {
        name: FlowSimConfig(
            generator=generator,
            duration=duration,
            interval=1.0,
            seed=derive_seed(seed, NAME, name),
            **POINT,
        )
        for name, generator in generators.items()
    }


def _targets(tracer: Tracer, formula_class) -> List[Target]:
    from repro.flowsim import run as flowsim_run
    from repro.flowsim.core import FlowSimCore
    from repro.lossprocess.iid import ShiftedExponentialIntervals

    def count_draws(args, kwargs, result, wall, self_time):
        tracer.add("lossprocess.draws", float(len(result)))

    return [
        Target(flowsim_run, "run_flowsim", "flowsim.run", "flowsim.run"),
        Target(FlowSimCore, "run", "flowsim.core.run", "flowsim.core"),
        Target(FlowSimCore, "schedule", "flowsim.generators.callback",
               "flowsim.generators", mode="callback", callback_arg=2),
        Target(FlowSimCore, "schedule_periodic", "flowsim.run.tick",
               "flowsim.run", mode="callback", callback_arg=2),
        Target(ShiftedExponentialIntervals, "sample_intervals", "lossprocess.sample",
               "lossprocess", on_done=count_draws),
        Target(formula_class, "rate_of_interval", "core.formulas.rate_of_interval",
               "core.formulas"),
    ]


def _check(check: Check, name: str, result, reference: float) -> None:
    check.count(result.num_flows == len(result.records),
                f"{name}: {result.num_flows} flows but {len(result.records)} records")
    check.count(result.flowlets_emitted > 0, f"{name}: no flowlets")
    rate = result.summary()["normalized_mean_rate"]
    if name == "steady":
        check.count(
            math.isfinite(rate) and abs(rate - reference) <= ANALYTIC_TOLERANCE * reference,
            f"steady normalized_mean_rate {rate} vs analytic {reference}",
        )
    else:
        check.count(math.isfinite(rate) and rate > 0, f"churn normalized_mean_rate {rate}")


def _analytic_reference(seed: int) -> float:
    from repro import api

    result = api.simulate(api.SimConfig(
        method="analytic", num_events=200_000, seed=derive_seed(seed, NAME, "analytic"), **POINT
    ))
    return float(result.normalized_throughput)


def _measure(configs, seconds: float, check: Check, reference: float, speed: Speed,
             tracer: Tracer = None) -> Tuple[Dict[str, List[Tuple[float, int, float]]], Dict[str, Any]]:
    """Alternate the runs for ``seconds``.

    Returns per-run (wall, flowlets, reference-kernel seconds) by config,
    the kernel timed just before each run.
    """
    from repro.flowsim import run as flowsim_run

    runs: Dict[str, List[Tuple[float, int, float]]] = {name: [] for name in configs}
    snapshots: Dict[str, List[Dict[str, Any]]] = {name: [] for name in configs}
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or min(len(v) for v in runs.values()) < 2:
        for name, config in configs.items():
            ref = speed.sample()
            begin = time.perf_counter()
            result = flowsim_run.run_flowsim(config)
            wall = time.perf_counter() - begin
            runs[name].append((wall, result.flowlets_emitted, ref))
            if tracer is not None:
                tracer.add("flowsim.core.events", result.events_processed)
                tracer.add("flowsim.run.records", len(result.records))
                snapshots[name].append(tracer.snapshot())
            _check(check, name, result, reference)
            # Free the run's ~50k flow records now, not at the collector's
            # whim, so peak memory does not depend on collection timing.
            del result
            gc.collect()
    return runs, snapshots


def _end_to_end(runs, ticks: float) -> Dict[str, float]:
    churn = scaled([run[0] for run in runs["churn"]], [run[2] for run in runs["churn"]])
    steady = scaled([run[0] for run in runs["steady"]], [run[2] for run in runs["steady"]])
    churn_flowlets = runs["churn"][0][1]
    steady_flowlets = runs["steady"][0][1]
    return {
        "light_op_ms": 1000.0 * steady / ticks,
        "heavy_op_ms": 1000.0 * churn / ticks,
        "bulk_per_s": (churn_flowlets + steady_flowlets) / (churn + steady),
        "churn_flowlets_per_s": churn_flowlets / churn,
        "steady_flowlets_per_s": steady_flowlets / steady,
    }


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Report:
    report = Report(NAME)
    speed = Speed()
    setups: List[float] = []
    setup_refs: List[float] = []
    for _ in range(SETUPS):
        ref = speed.sample()
        begin = time.perf_counter()
        configs = make_configs(seed, tiny)
        # Let lazy set-up finish: resolve every component and run one
        # simulated interval of each config before anything is timed.
        for config in configs.values():
            from repro.flowsim.run import run_flowsim

            run_flowsim(dataclasses.replace(config, duration=1.0))
        setups.append(time.perf_counter() - begin)
        setup_refs.append(ref)
    ticks = configs["steady"].duration / configs["steady"].interval
    reference = _analytic_reference(seed)
    report.note(f"analytic Prop 1 normalized throughput: {reference:.6f}")

    runs, _ = _measure(configs, seconds, report.check, reference, speed)
    e2e = _end_to_end(runs, ticks)
    report.note(f"runs: churn {len(runs['churn'])}, steady {len(runs['steady'])}")
    report.note(speed_note(speed))
    report.put("headline", "churn_flowlets_per_s", e2e["churn_flowlets_per_s"], "1/s")
    report.put("headline", "steady_flowlets_per_s", e2e["steady_flowlets_per_s"], "1/s")
    report.put("metrics", "light_op_ms", e2e["light_op_ms"], "ms")
    report.put("metrics", "heavy_op_ms", e2e["heavy_op_ms"], "ms")
    report.put("metrics", "bulk_per_s", e2e["bulk_per_s"], "1/s")
    report.put("metrics", "setup_s", scaled(setups, setup_refs), "s")
    if trace:
        _traced(report, configs, seconds, reference, speed, e2e, ticks)
    report.put("metrics", "peak_rss_mb", peak_rss_mb(), "MB")
    return report


def _traced(report: Report, configs, seconds: float, reference: float, speed: Speed,
            untraced: Dict[str, float], ticks: float) -> None:
    tracer = Tracer()
    targets = _targets(tracer, type(configs["steady"].resolve_formula()))
    with tracer.installed(targets):
        runs, snapshots = _measure(configs, seconds, report.check, reference, speed, tracer)
    traced = _end_to_end(runs, ticks)
    churn = merge_snapshots(*snapshots["churn"])
    steady = merge_snapshots(*snapshots["steady"])
    both = merge_snapshots(churn, steady)

    events = both["counters"].get("flowsim.core.events", 0.0)
    core_self = sum(
        entry["self"] for entry in both["spans"].values() if entry["layer"] == "flowsim.core"
    )
    report.put("layers", "flowsim.core.events", events, "count")
    report.put("layers", "flowsim.run.records", both["counters"].get("flowsim.run.records", 0.0), "count")
    report.put("layer_times", "flowsim.core.event_us", 1e6 * ratio(core_self, events), "us")
    callbacks = span_calls(churn, "flowsim.generators.callback")
    report.put("layer_times", "flowsim.generators.arrival_us",
               1e6 * ratio(span_wall(churn, "flowsim.generators.callback"), callbacks), "us")
    report.put("layer_times", "flowsim.run.tick_ms.p50",
               1000.0 * percentile(span_samples(steady, "flowsim.run.tick"), 50), "ms")
    sampling = span_wall(steady, "lossprocess.sample", "core.formulas.rate_of_interval")
    report.put("layers", "flowsim.run.sample_share",
               ratio(sampling, span_wall(steady, "flowsim.run.tick")), "ratio")
    report.put("layers", "lossprocess.sample_draws_per_s",
               ratio(both["counters"].get("lossprocess.draws", 0.0),
                     span_wall(both, "lossprocess.sample")), "1/s")

    phases = []
    for name, snap in (("churn", churn), ("steady", steady)):
        base = sum(run[0] for run in runs[name])
        phases.append(Phase(name, base, layer_self_times(snap)))
    account(report, phases)
    overhead(report, {k: untraced[k] for k in ("light_op_ms", "heavy_op_ms", "bulk_per_s")},
             traced)
