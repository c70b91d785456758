"""repro: reproduction of "On the Long-Run Behavior of Equation-Based Rate Control".

Vojnovic & Le Boudec, ACM SIGCOMM 2002 (extended report IC/2003/70).

Subpackages
-----------
core
    Loss-throughput formulas, the loss-event interval estimator, the basic
    and comprehensive controls, analytic throughput (Propositions 1-3),
    convexity diagnostics, sufficient conditions (Theorems 1-2), and the
    TCP-friendliness breakdown.
lossprocess
    Stochastic models of the loss-event interval sequence.
palm
    Palm-calculus estimators and statistics helpers.
montecarlo
    The kernels of the paper's numerical experiments (Figures 3 and 4);
    a point runs through ``api.simulate``.
simulator
    A packet-level discrete-event simulator (ns-2 substitute) with
    DropTail/RED queues, TCP, TFRC, and probe sources.
flowsim
    A flow-level discrete-event simulator: per-interval throughput
    draws instead of packets, so thousand-to-million-flow campaigns run
    in seconds (the ``flowsim`` runner and ``flowsim-scale`` preset).
measurement
    Loss-event detection and per-flow statistics extraction from
    simulation traces.
analysis
    The many-sources limit (Claim 3), the few-flows fixed-capacity model
    (Claim 4), and the empirical TCP-friendliness breakdown.
api
    The unified component-config layer: one registry per component
    family (formulas, loss processes, weight profiles, scenarios) with
    exact JSON round-trip, plus the ``simulate()`` / ``simulate_batch()``
    facade.
telemetry
    Dependency-free tracing spans and metrics (counters, gauges,
    histograms) threaded through the hot layers; metrics are always on
    and per process, spans are toggled with ``REPRO_TELEMETRY=1`` or
    ``repro.telemetry.enable()``.
"""

from . import (
    analysis,
    api,
    core,
    flowsim,
    lossprocess,
    measurement,
    montecarlo,
    palm,
    simulator,
    telemetry,
)

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "api",
    "core",
    "flowsim",
    "lossprocess",
    "measurement",
    "montecarlo",
    "palm",
    "simulator",
    "telemetry",
    "__version__",
]
