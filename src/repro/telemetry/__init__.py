"""Process-wide tracing and metrics for the reproduction's hot paths.

The subsystem is deliberately dependency-free (standard library only).
Counters, gauges and histograms are **always on** and count **per
process**: :func:`incr`, :func:`observe` and :func:`set_gauge` record
into the one registry :func:`get_registry` returns, the only place the
package counts an event.  Each call takes the registry lock once, so
instrumentation sits at call granularity (per request, store lookup,
campaign point or simulator run), never per row or per event.  Spans
are **opt-in**: :func:`span` is a shared no-op until they are enabled.

Enabling spans
--------------
Set the environment variable ``REPRO_TELEMETRY=1`` before the process
starts, or call :func:`enable` programmatically (the CLI exposes it as
``--telemetry`` on ``experiments run`` and ``serve``)::

    from repro import telemetry

    telemetry.enable(fresh=True)
    ...  # run simulations / campaigns / batches
    print(telemetry.get_registry().snapshot())
    telemetry.export_json("telemetry.json")

Instrumentation vocabulary
--------------------------
:func:`span`
    Nested context manager recording wall-clock and CPU time.  Finished
    spans land in the registry's bounded span log with their nesting
    path; a span named ``kernel.montecarlo.control`` also feeds the
    ``span:kernel.montecarlo.control`` histogram, so repeated spans
    aggregate.  ``sp.set("items", n)`` annotates a span; an ``items``
    annotation additionally derives an ``items_per_s`` throughput
    attribute at exit.
:class:`MetricsRegistry`
    Counters (monotonic sums), gauges (last value wins), histograms
    (the newest ``HISTOGRAM_CAP`` observations, summarised as
    count/mean/min/max/p50/p90).

What the package records
------------------------
* ``experiments.*`` -- ok/cached/error point counters, per-point compute
  and (pool path) queue-wait histograms, and campaign / point spans
  (:mod:`repro.experiments.runner`);
* ``store.*`` and ``memo.*`` -- result-store and memoising-tier lookup
  and put counters (:mod:`repro.experiments.store`);
* ``service.*`` -- prediction-service request, compute and coalescing
  counters (:mod:`repro.service`);
* ``api.*`` -- one span per :func:`repro.api.simulate` /
  :func:`repro.api.simulate_batch` call with grid shape and rows/sec;
* ``kernel.*`` -- the vectorised Monte-Carlo and analytic kernels;
* ``simulator.*`` and ``flowsim.*`` -- events processed and events/sec
  per event-loop run.

Every name is declared in :mod:`repro.telemetry.catalog`; the
``telemetry-catalog`` rule of ``tests/test_static_contracts.py`` rejects
instrument name literals that are missing from the catalog or that stray
from the dotted-lowercase scheme.
"""

from .catalog import CATALOG, is_catalogued, validate_name
from .core import (
    MetricsRegistry,
    Span,
    disable,
    enable,
    enabled,
    get_registry,
    incr,
    observe,
    reset,
    set_gauge,
    span,
)
from .export import export_json, export_spans_jsonl, snapshot

__all__ = [
    "CATALOG",
    "MetricsRegistry",
    "Span",
    "disable",
    "enable",
    "enabled",
    "export_json",
    "export_spans_jsonl",
    "get_registry",
    "incr",
    "is_catalogued",
    "observe",
    "reset",
    "set_gauge",
    "snapshot",
    "span",
    "validate_name",
]
