"""Wrapper targets for the layers more than one workload crosses.

Each target names the attribute *where callers look it up*: the service
core calls ``repro.api.simulate`` through the package, the campaign
registry through its own ``_simulate_point`` alias, and the facade calls
its kernels through names imported into ``repro.api.simulate``.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List

from .common import percentile, ratio
from .tracing import Target, Tracer, span_samples, span_wall

VECTORIZED = ("evaluate_control_arrays", "sliding_estimates", "summarize_rows")
VECTORIZED_ANALYTIC = (
    "affine_basic_throughput_rows",
    "analytic_window_estimates",
    "basic_throughput_rows",
    "comprehensive_throughput_rows",
    "stratified_representatives",
)


def kernel_targets(tracer: Tracer, simulate_hook=None, batch_hook=None) -> List[Target]:
    """``api.simulate``/``simulate_batch`` and the kernels beneath them.

    ``simulate_hook`` and ``batch_hook`` run after each facade call, with
    the target hook signature, for callers that pair calls to requests.
    """
    from repro import api
    from repro.experiments import registry

    facade = importlib.import_module("repro.api.simulate")

    def count_events(args, kwargs, result, wall, self_time):
        tracer.add("montecarlo.scalar.events", float(kwargs.get("num_events", 0)))

    def count_rows(args, kwargs, result, wall, self_time):
        tracer.add(f"api.simulate_batch.rows.{result.config.method}", float(len(result.results)))
        if batch_hook is not None:
            batch_hook(args, kwargs, result, wall, self_time)

    targets = [
        Target(api, "simulate", "api.simulate", "api.simulate", on_done=simulate_hook),
        Target(registry, "_simulate_point", "api.simulate", "api.simulate"),
        Target(api, "simulate_batch", "api.simulate_batch", "api.simulate_batch", on_done=count_rows),
        Target(registry, "_simulate_batch", "api.simulate_batch", "api.simulate_batch",
               on_done=count_rows),
    ]
    for name in ("simulate_basic_control", "simulate_comprehensive_control"):
        targets.append(Target(facade, name, "montecarlo.scalar", "montecarlo.scalar",
                              on_done=count_events))
    for name in VECTORIZED:
        targets.append(Target(facade, name, f"montecarlo.vectorized.{name}",
                              "montecarlo.vectorized"))
    for name in VECTORIZED_ANALYTIC:
        targets.append(Target(facade, name, f"montecarlo.vectorized_analytic.{name}",
                              "montecarlo.vectorized_analytic"))
    return targets


def kernel_metrics(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Facade and kernel figures of a snapshot taken under :func:`kernel_targets`."""
    counters = snapshot["counters"]
    batch_wall = span_wall(snapshot, "api.simulate_batch")
    vectorized = span_wall(snapshot, *(f"montecarlo.vectorized.{n}" for n in VECTORIZED))
    analytic = span_wall(
        snapshot, *(f"montecarlo.vectorized_analytic.{n}" for n in VECTORIZED_ANALYTIC)
    )
    return {
        "api.simulate.ms.p50": 1000.0 * percentile(span_samples(snapshot, "api.simulate"), 50),
        "montecarlo.scalar.events_per_s": ratio(
            counters.get("montecarlo.scalar.events", 0.0), span_wall(snapshot, "montecarlo.scalar")
        ),
        "api.simulate_batch.ms.p50": 1000.0
        * percentile(span_samples(snapshot, "api.simulate_batch"), 50),
        "api.simulate_batch.facade_share": ratio(batch_wall - vectorized - analytic, batch_wall),
        "montecarlo.vectorized.rows_per_s": ratio(
            counters.get("api.simulate_batch.rows.montecarlo", 0.0), vectorized
        ),
        "montecarlo.vectorized_analytic.rows_per_s": ratio(
            counters.get("api.simulate_batch.rows.analytic", 0.0), analytic
        ),
    }

