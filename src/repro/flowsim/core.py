"""Discrete-event core of the flow-level simulator.

:class:`FlowSimCore` is the repo's one event loop,
:class:`repro.simulator.engine.EventLoop`, reporting under the
``flowsim.*`` telemetry names.  It knows nothing about flows, formulas
or loss processes; the driver in :mod:`repro.flowsim.run` registers
callbacks on it.
"""

from __future__ import annotations

from .. import telemetry
from ..simulator.engine import Event as FlowEvent
from ..simulator.engine import EventLoop, PeriodicEvent

__all__ = ["FlowEvent", "PeriodicEvent", "FlowSimCore"]


class FlowSimCore(EventLoop):
    """The event loop of a flow-level run.

    Unlike the packet-level :class:`~repro.simulator.engine.Simulator`
    the core owns no random generator: the flow-level driver draws all
    randomness from one :class:`numpy.random.Generator` of its own, so
    the event loop stays a pure scheduler.
    """

    def _report(self, processed: int, wall: float) -> None:
        telemetry.incr("flowsim.runs")
        telemetry.incr("flowsim.events_processed", processed)
        telemetry.observe("flowsim.run_wall", wall)
        if wall > 0.0:
            telemetry.observe("flowsim.events_per_s", processed / wall)
