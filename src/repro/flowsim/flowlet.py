"""Flow and flowlet records of the flow-level simulator.

The flow-level abstraction (after jsommers/fs) replaces per-packet state
with two data shapes:

* a :class:`Flowlet` -- one sampling interval's worth of a flow's
  traffic, carrying the rate the throughput model assigned for that
  interval and the resulting packet volume;
* a :class:`FlowRecord` -- the per-flow summary written to the JSONL
  export: lifetime, total packets, flowlet count, mean assigned rate,
  and whether the flow completed (reached its size limit or was closed
  by its generator) or was still active when the simulation ended.

Both are :class:`typing.NamedTuple` classes: a run can hold tens of
thousands of records, and a named tuple has no per-object ``__dict__``
and is built without a Python-level ``__init__``.  Their ``repr`` is the
dataclass-style ``Flowlet(flow_id=3, ...)``, and they carry exact
``to_dict`` / ``from_dict`` JSON round-trips, mirroring the
component-config contract of :mod:`repro.api`.  Being tuples, they also
compare equal to plain tuples of the same values.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, NamedTuple, Optional

__all__ = ["Flowlet", "FlowRecord"]


class Flowlet(NamedTuple):
    """One sampling interval of one flow's traffic.

    ``rate`` is the send rate (packets/second) the throughput model
    assigned for the interval and ``packets = rate * duration`` the
    volume emitted.  Flowlet objects are only collected when the driver
    is asked to (``record_flowlets=True``); at campaign scale only the
    per-flow aggregates are kept.
    """

    flow_id: int
    start: float
    duration: float
    rate: float
    packets: float

    def to_dict(self) -> Dict[str, Any]:
        return self._asdict()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Flowlet":
        return cls(**dict(payload))


class FlowRecord(NamedTuple):
    """Per-flow summary emitted at flow completion (or simulation end).

    ``size`` is the flow's packet limit when it had one (``None`` for
    unbounded flows); ``mean_rate`` is the mean of the per-flowlet
    assigned rates, the quantity the steady-state formula prediction is
    compared against.  ``completed`` is ``False`` for flows cut off by
    the end of the simulation.
    """

    flow_id: int
    start_time: float
    end_time: float
    packets_sent: float
    num_flowlets: int
    mean_rate: float
    completed: bool
    size: Optional[float] = None

    @property
    def duration(self) -> float:
        """Observed lifetime of the flow in simulated seconds."""
        return self.end_time - self.start_time

    def to_dict(self) -> Dict[str, Any]:
        return self._asdict()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FlowRecord":
        return cls(**dict(payload))
