"""The central catalog of telemetry instrument names.

Every span, counter, gauge and histogram name the package emits is
declared here, so that dashboards, exporters and the test suite have one
place to discover the vocabulary -- and so that the static-analysis pass
(:mod:`repro.devtools`, ``telemetry-catalog`` rule) can reject a name
literal that was never registered or that strays from the naming scheme.

Naming scheme
-------------
Names are dotted lowercase: two or more ``[a-z0-9_]`` segments joined by
dots (``kernel.analytic.basic``, ``flowsim.events_per_s``).  The single
exception is the ``span:`` prefix, which mirrors the per-span histogram
that :class:`repro.telemetry.core.Span` derives automatically
(``span:<span name>``).

Dynamic families
----------------
A trailing ``.*`` declares a *family*: call sites may build the final
segment at runtime (``telemetry.incr(f"experiments.points.{status}")``)
as long as the literal prefix of the f-string is covered by a family
entry.  The checker enforces exactly that.
"""

from __future__ import annotations

import re
from typing import Dict

__all__ = ["CATALOG", "NAME_PATTERN", "is_catalogued", "validate_name"]

#: Catalogued name (or ``family.*`` prefix) -> short description.
CATALOG: Dict[str, str] = {
    # -- spans ---------------------------------------------------------
    "api.simulate": "span: one scalar simulate() evaluation",
    "api.simulate_batch": "span: one vectorised grid evaluation",
    "kernel.montecarlo.sliding_estimates": (
        "span: sliding-window estimator matmul over stacked interval rows"
    ),
    "kernel.montecarlo.control": (
        "span: basic/comprehensive control update over kept estimates"
    ),
    "kernel.analytic.basic": "span: row-wise Proposition-1 evaluation",
    "kernel.analytic.comprehensive": "span: row-wise Proposition-3 evaluation",
    "kernel.analytic.affine": (
        "span: stratified shared-noise affine (p, cv) fast path"
    ),
    "experiments.campaign": "span: one campaign run (all points)",
    "experiments.point": "span: one serial campaign point",
    "flowsim.run": "span: one flow-level simulation run",
    "service.compute": "span: one prediction-service kernel call",
    # -- counters ------------------------------------------------------
    "simulator.runs": "counter: packet-level Simulator.run() calls",
    "simulator.events": "counter: packet-level events processed",
    "flowsim.runs": "counter: flow-level FlowSimCore.run() calls",
    "flowsim.events_processed": "counter: flow-level events processed",
    "flowsim.runs_total": "counter: run_flowsim() driver invocations",
    "flowsim.flows_started": "counter: flows opened across driver runs",
    "flowsim.flows_completed": "counter: flows completed across driver runs",
    "flowsim.flowlets": "counter: flowlet records emitted across runs",
    "flowsim.flowlets_dropped": (
        "counter: flows finalised having emitted zero flowlets (lifetime "
        "shorter than one sampling interval)"
    ),
    "api.batch.calls": "counter: simulate_batch() invocations",
    "api.batch.rows": "counter: grid points evaluated by simulate_batch()",
    "experiments.points.*": (
        "counter family: campaign point outcomes by status (ok/error/cached)"
    ),
    "store.hit": "counter: result-store lookups reusing a stored record",
    "store.miss": "counter: result-store lookups with no record",
    "store.retry": "counter: result-store lookups retrying a failed record",
    "store.put": "counter: result-store records written",
    "memo.hit": "counter: memoising-cache hits served from the LRU",
    "memo.hit_store": "counter: memoising-cache hits promoted from the store",
    "memo.miss": "counter: memoising-cache misses",
    "memo.put": "counter: memoising-cache inserts",
    "memo.lru.eviction": "counter: LRU entries evicted",
    "service.requests_predict": "counter: /predict requests received",
    "service.requests_batch": "counter: /predict/batch requests received",
    "service.bad_requests": "counter: prediction requests refused as invalid",
    "service.coalesced": (
        "counter: prediction requests that awaited an in-flight compute"
    ),
    "service.computes_predict": "counter: single-point kernel computes",
    "service.computes_batch": "counter: batch kernel computes",
    "service.compute_shards": "counter: shards run by batch computes",
    # -- histograms ----------------------------------------------------
    "simulator.run_wall": "histogram: wall seconds per simulator run",
    "simulator.events_per_s": "histogram: simulator event throughput",
    "flowsim.run_wall": "histogram: wall seconds per flow-level run",
    "flowsim.events_per_s": "histogram: flow-level event throughput",
    "experiments.compute": "histogram: per-point compute seconds",
    "experiments.queue_wait": (
        "histogram: per-point executor queue-wait seconds (pool path)"
    ),
    "span:experiments.point": (
        "histogram: pool-path point turnaround, mirroring the automatic "
        "span:<name> histogram the serial path gets from Span itself"
    ),
}

#: The dotted-lowercase scheme (catalog keys may add a ``.*`` suffix).
NAME_PATTERN = re.compile(r"^(?:span:)?[a-z0-9_]+(?:\.[a-z0-9_]+)+$")

_KEY_PATTERN = re.compile(r"^(?:span:)?[a-z0-9_]+(?:\.[a-z0-9_]+)*(?:\.\*)?$")


def validate_name(name: str) -> bool:
    """Does ``name`` follow the dotted-lowercase naming scheme?"""
    return NAME_PATTERN.match(name) is not None


def is_catalogued(name: str) -> bool:
    """Is ``name`` declared in :data:`CATALOG` (directly or by family)?"""
    if name in CATALOG:
        return True
    return any(
        key.endswith(".*") and name.startswith(key[:-1]) and
        len(name) > len(key[:-1])
        for key in CATALOG
    )


def _check_catalog() -> None:
    for key in CATALOG:
        if _KEY_PATTERN.match(key) is None or "." not in key:
            raise ValueError(f"catalog key {key!r} breaks the naming scheme")


_check_catalog()
