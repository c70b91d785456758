"""Flow-level discrete-event simulation for thousand-to-million-flow campaigns.

Where :mod:`repro.simulator` simulates every TFRC/TCP packet through a
dumbbell, this package emits *flowlets*: per-interval throughput draws
taken from the registered loss-throughput formulas against the
configured loss process (the fs-style abstraction of jsommers/fs).  A
tick evaluates the entire flow population in one numpy pass, and Poisson
arrivals are drawn a tick interval at a time, so event count grows with
simulated time (and the events of an event-driven generator such as
on-off) -- not with flow count -- and a 10k-concurrent-flow,
100-second scenario finishes in seconds.

Layout (one module per concern, mirroring the exemplar):

* :mod:`~repro.flowsim.core` -- the repo's one event loop
  (:class:`repro.simulator.engine.EventLoop`) under ``flowsim.*``
  telemetry names;
* :mod:`~repro.flowsim.flowlet` -- the :class:`Flowlet` /
  :class:`FlowRecord` named tuples (exact JSON round-trip);
* :mod:`~repro.flowsim.generators` -- pluggable traffic generators
  (fixed population, Poisson arrivals, on/off), registered in
  ``repro.api.GENERATORS``;
* :mod:`~repro.flowsim.run` -- :class:`FlowSimConfig` /
  :func:`run_flowsim`, the vectorised tick driver;
* :mod:`~repro.flowsim.export` -- JSONL flow-record export.

Campaigns drive it through the ``flowsim`` runner kind and the
``flowsim-scale`` preset of :mod:`repro.experiments`.
"""

from .core import FlowEvent, FlowSimCore, PeriodicEvent
from .flowlet import FlowRecord, Flowlet
from .generators import (
    FixedPopulationGenerator,
    OnOffGenerator,
    PoissonArrivalsGenerator,
    TrafficGenerator,
)
from .export import (
    read_flow_records,
    read_flowlets,
    write_flow_records,
    write_flowlets,
)
from .run import FlowSimConfig, FlowSimResult, FlowSimulation, run_flowsim

__all__ = [
    "FlowSimCore",
    "FlowEvent",
    "PeriodicEvent",
    "Flowlet",
    "FlowRecord",
    "TrafficGenerator",
    "FixedPopulationGenerator",
    "PoissonArrivalsGenerator",
    "OnOffGenerator",
    "FlowSimConfig",
    "FlowSimResult",
    "FlowSimulation",
    "run_flowsim",
    "write_flow_records",
    "read_flow_records",
    "write_flowlets",
    "read_flowlets",
]
