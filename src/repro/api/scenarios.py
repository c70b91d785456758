"""Dumbbell scenario families as registrable components.

The paper's packet-level experiments all share one topology -- TFRC, TCP
and probe flows over a single bottleneck -- and differ only in the
parameters of the queue, capacity, delays and flow counts.  This module
is the one description of each setup: a small frozen dataclass that is
pure data (exact JSON round-trip through :data:`repro.api.SCENARIOS`)
and whose ``build(seed)`` constructs the concrete
:class:`~repro.simulator.scenarios.DumbbellConfig` the simulator
consumes:

* :class:`Ns2Scenario` -- the ns-2 analogue (Section V-A.2, RED);
* :class:`LabScenario` -- the lab analogue (Section V-A.3, DropTail/RED);
* :class:`InternetScenario` -- one of the Table I Internet paths;
* :class:`CustomDumbbellScenario` -- a fully explicit dumbbell for
  scenarios outside the paper's three families.

The three paper families run equal numbers of TFRC and TCP flows and
warm up for a fifth of the run, at most 20 s.  Splitting "family
description" (this module) from "simulator input"
(:class:`DumbbellConfig`) is what keeps the experiment layer
declarative: a campaign grid can sweep scenario configs without
importing the simulator.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from ..simulator.scenarios import INTERNET_PATHS, DumbbellConfig

__all__ = [
    "ScenarioFamily",
    "Ns2Scenario",
    "LabScenario",
    "InternetScenario",
    "CustomDumbbellScenario",
]


class ScenarioFamily(abc.ABC):
    """A declarative description of one dumbbell experiment scenario."""

    @abc.abstractmethod
    def build(self, seed: Optional[int] = None) -> DumbbellConfig:
        """Materialise the simulator configuration for this scenario."""


def _paired(family: Any, seed: Optional[int], **fields: Any) -> DumbbellConfig:
    """A paper family's config: ``num_connections`` TFRC and TCP flows."""
    return DumbbellConfig(
        num_tfrc=family.num_connections,
        num_tcp=family.num_connections,
        capacity_mbps=family.capacity_mbps,
        history_length=family.history_length,
        duration=family.duration,
        warmup=min(20.0, family.duration / 5.0),
        seed=seed,
        **fields,
    )


@dataclass(frozen=True)
class Ns2Scenario(ScenarioFamily):
    """The ns-2-analogue family: RED bottleneck, RTT 50 ms.

    The paper uses 15 Mb/s; the default here is 1.5 Mb/s so that per-flow
    packet rates (and hence loss-event statistics) at small connection
    counts remain comparable in a run that completes quickly.
    """

    num_connections: int = 1
    history_length: int = 8
    duration: float = 200.0
    capacity_mbps: float = 1.5

    def build(self, seed: Optional[int] = None) -> DumbbellConfig:
        return _paired(
            self, seed, rtt_seconds=0.05, queue_type="red", tfrc_comprehensive=True
        )


@dataclass(frozen=True)
class LabScenario(ScenarioFamily):
    """The lab-analogue family: DropTail or RED, comprehensive disabled.

    RTT 50 ms (25 ms of added propagation each way), PFTK-standard,
    ``L = 8``, as in the paper's testbed.  A ``buffer_packets`` of None
    is 100 packets for DropTail and derived from the bandwidth-delay
    product for RED, as in the paper's RED setup (``queue_type`` is read
    as the queue builder reads it: stripped, case-insensitive); any
    other value must be at least 1.
    """

    num_connections: int = 1
    queue_type: str = "droptail"
    buffer_packets: Optional[int] = 100
    history_length: int = 8
    duration: float = 200.0
    capacity_mbps: float = 1.0

    def __post_init__(self) -> None:
        if self.buffer_packets is not None and not self.buffer_packets >= 1:
            raise ValueError(
                f"buffer_packets must be None or at least 1, got {self.buffer_packets!r}"
            )

    def build(self, seed: Optional[int] = None) -> DumbbellConfig:
        if self.buffer_packets is not None:
            buffer_packets: Optional[int] = int(self.buffer_packets)
        elif self.queue_type.strip().lower() == "red":
            buffer_packets = None
        else:
            buffer_packets = 100
        return _paired(
            self,
            seed,
            rtt_seconds=0.05,
            queue_type=self.queue_type,
            buffer_packets=buffer_packets,
            tfrc_comprehensive=False,
        )


@dataclass(frozen=True)
class InternetScenario(ScenarioFamily):
    """The Internet-analogue family for one of the Table I paths.

    The path's RTT parameterises the propagation delay; the DropTail
    bottleneck (buffer derived from the bandwidth-delay product) models
    the constrained segment of the path, scaled down from the access
    rates of Table I so that runs are fast; cross traffic is the
    competing TCP flows themselves, as in the paper, where TFRC and TCP
    probes are launched in equal numbers.
    """

    path_name: str = "INRIA"
    num_connections: int = 1
    history_length: int = 8
    duration: float = 200.0
    capacity_mbps: float = 1.0

    def build(self, seed: Optional[int] = None) -> DumbbellConfig:
        if self.path_name not in INTERNET_PATHS:
            raise KeyError(
                f"unknown path {self.path_name!r}; valid names are {sorted(INTERNET_PATHS)}"
            )
        return _paired(
            self,
            seed,
            rtt_seconds=INTERNET_PATHS[self.path_name].rtt_seconds,
            queue_type="droptail",
            tfrc_comprehensive=True,
        )


@dataclass(frozen=True)
class CustomDumbbellScenario(ScenarioFamily):
    """A fully explicit dumbbell scenario outside the named families."""

    num_tfrc: int = 1
    num_tcp: int = 1
    num_poisson: int = 0
    num_cbr: int = 0
    capacity_mbps: float = 1.5
    rtt_seconds: float = 0.05
    queue_type: str = "red"
    buffer_packets: Optional[int] = None
    red_min_fraction: float = 0.25
    red_max_fraction: float = 1.25
    history_length: int = 8
    tfrc_comprehensive: bool = True
    probe_rate_fraction: float = 0.25
    duration: float = 200.0
    warmup: float = 20.0

    def build(self, seed: Optional[int] = None) -> DumbbellConfig:
        return DumbbellConfig(seed=seed, **dataclasses.asdict(self))
