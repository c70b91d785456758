"""Pluggable traffic generators for the flow-level simulator.

A generator decides *when flows exist*: it is installed once on a
:class:`~repro.flowsim.run.FlowSimulation` and draws all its randomness
from the simulation's single seeded generator.  It opens and closes
flows either by scheduling events on the simulation's
:class:`~repro.flowsim.core.FlowSimCore` (``open_flow`` /
``close_flow`` from a callback), or window by window: a callback
registered with ``on_window`` runs before the first tick and after
every tick's opens, and hands the flow table the columns of every flow
arriving before the next tick (``open_flows``).  Three families ship
(mirroring the ``traffic_generators`` of the jsommers/fs exemplar):

* :class:`FixedPopulationGenerator` -- ``num_flows`` long-lived flows,
  all present from time zero (the paper's many-concurrent-sources
  setting, and the shape the ``flowsim-scale`` preset drives at 10k
  flows);
* :class:`PoissonArrivalsGenerator` -- flows arrive as a Poisson
  process and carry either an exponential *size* (packets; the flow
  completes when the volume is sent) or an exponential *duration*
  (seconds; the flow ends at its end time).  It schedules no events:
  each window's arrivals are drawn in one block;
* :class:`OnOffGenerator` -- ``num_flows`` on/off sources with
  exponential on and off periods; every on-period is a fresh flow,
  opened and closed by events.

All three are frozen dataclasses registered in the
``repro.api.GENERATORS`` registry, so campaign specs describe them as
plain config dicts with exact JSON round-trip.  Each checks its
parameters on construction: rates and means are positive and finite,
counts are integers.  This module must stay import-free of
:mod:`repro.api` (the registry imports *it*).
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "TrafficGenerator",
    "FixedPopulationGenerator",
    "PoissonArrivalsGenerator",
    "OnOffGenerator",
]


#: Most (size or lifetime, gap) pairs one look-ahead block draws.
_MAX_BLOCK = 4096

#: Most arrivals one ``poisson-arrivals`` window may expect,
#: ``arrival_rate`` times the window's length.  A limit, like the
#: service's ``MAX_BATCH_ROWS``, not an option: a finite but huge rate
#: would otherwise draw block after block without leaving its window.
MAX_WINDOW_ARRIVALS = 10**7


def _check_positive(name: str, value: float) -> None:
    if not (isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value: int) -> None:
    # Like check_history_length: a float or a bool is rejected rather
    # than truncated; numpy integers pass.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _window_arrivals(
    rng: np.random.Generator,
    first: float,
    until: float,
    scales: np.ndarray,
    rate: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the Poisson arrivals of one window, as one arrival at a time would.

    ``first`` is the time of the next arrival, already drawn; the window
    holds the arrivals before ``until``.  Each arrival draws a pair from
    ``rng``: its size or lifetime (scale ``scales[0]``), then the gap to
    the next arrival (scale ``scales[1]``).  Returns the window's sizes or
    lifetimes and its arrival times with the first arrival after the
    window appended.

    Look-ahead blocks of pairs, drawn from a saved generator state, count
    the window's arrivals; the state is then restored and exactly those
    pairs drawn again, so ``rng`` ends where drawing the pairs one
    arrival at a time would leave it.  Arrival times are sums in arrival
    order, as an event clock adds each gap to the previous arrival.
    A window expecting more than :data:`MAX_WINDOW_ARRIVALS` arrivals is
    refused before any draw.
    """
    expected = rate * (until - first)
    if expected > MAX_WINDOW_ARRIVALS:
        raise ValueError(
            f"a window expects {expected:.3g} arrivals (arrival_rate x "
            f"interval), more than the limit of {MAX_WINDOW_ARRIVALS}"
        )
    state = rng.bit_generator.state
    count, last = 0, first
    while last < until:
        # The expected arrivals plus four standard deviations: one block
        # nearly always covers the window.
        expected = rate * (until - last)
        block = int(min(expected + 4.0 * sqrt(expected) + 16.0, _MAX_BLOCK))
        gaps = rng.exponential(scales, size=(block, 2))[:, 1]
        times = np.add.accumulate(np.concatenate(((last,), gaps)))
        count += min(int(times.searchsorted(until)), block)
        last = times[-1]
    rng.bit_generator.state = state
    pairs = rng.exponential(scales, size=(count, 2))
    times = np.add.accumulate(np.concatenate(((first,), pairs[:, 1])))
    return pairs[:, 0], times


class TrafficGenerator(abc.ABC):
    """Base class of the generator family.

    ``install(simulation)`` is called once before the event loop starts;
    the generator opens its initial flows and schedules whatever future
    arrivals it needs, as events or as a window callback
    (``simulation.on_window``).  Implementations must take all
    randomness from ``simulation.rng`` so one seed reproduces the whole
    run.
    """

    @abc.abstractmethod
    def install(self, simulation) -> None:
        """Register this generator's flows and events on a simulation."""


@dataclass(frozen=True)
class FixedPopulationGenerator(TrafficGenerator):
    """``num_flows`` unbounded flows, all active from time zero."""

    num_flows: int = 100

    def __post_init__(self) -> None:
        _check_count("num_flows", self.num_flows)

    def install(self, simulation) -> None:
        for _ in range(self.num_flows):
            simulation.open_flow()


@dataclass(frozen=True)
class PoissonArrivalsGenerator(TrafficGenerator):
    """Poisson flow arrivals with exponential sizes or durations.

    ``arrival_rate`` is the mean number of new flows per simulated
    second.  Exactly one of ``mean_size`` (packets; the flow runs until
    its volume is sent) and ``mean_duration`` (seconds; the flow ends
    that long after it arrives) must be given -- the two standard ways a
    flow-level workload bounds its flows.

    The generator schedules no events.  It draws the first gap on
    install; then, before the first tick and after each tick's opens, it
    draws the arrivals of the window up to the next tick in one block
    and opens them as columns, duration-bounded flows with their end
    times.  The random stream, and so every record, is the one drawn
    one arrival at a time: per arrival its size or lifetime, then the
    gap to the next arrival.
    """

    arrival_rate: float = 1.0
    mean_size: Optional[float] = None
    mean_duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_positive("arrival_rate", self.arrival_rate)
        if (self.mean_size is None) == (self.mean_duration is None):
            raise ValueError(
                "specify exactly one of mean_size (packets) and "
                "mean_duration (seconds)"
            )
        if self.mean_size is not None:
            _check_positive("mean_size", self.mean_size)
        else:
            _check_positive("mean_duration", self.mean_duration)

    def install(self, simulation) -> None:
        rng = simulation.rng
        gap = 1.0 / self.arrival_rate
        sized = self.mean_size is not None
        scales = np.array([self.mean_size if sized else self.mean_duration, gap])
        next_arrival = simulation.core.now + rng.exponential(gap)

        def open_window(until: float) -> None:
            nonlocal next_arrival
            if next_arrival < until:
                values, times = _window_arrivals(
                    rng, next_arrival, until, scales, self.arrival_rate
                )
                starts, next_arrival = times[:-1], times[-1]
                if sized:
                    simulation.open_flows(starts, sizes=values)
                else:
                    simulation.open_flows(starts, ends=starts + values)

        simulation.on_window(open_window)


@dataclass(frozen=True)
class OnOffGenerator(TrafficGenerator):
    """``num_flows`` on/off sources with exponential period lengths.

    Each source starts in the *on* state at time zero; every on-period
    is opened as a fresh flow (new flow id) and closed when the period
    ends, so the flow-record export shows one record per burst.
    """

    num_flows: int = 10
    mean_on: float = 10.0
    mean_off: float = 10.0

    def __post_init__(self) -> None:
        _check_count("num_flows", self.num_flows)
        _check_positive("mean_on", self.mean_on)
        _check_positive("mean_off", self.mean_off)

    def install(self, simulation) -> None:
        for _ in range(self.num_flows):
            self._turn_on(simulation)

    def _turn_on(self, simulation) -> None:
        flow_id = simulation.open_flow()
        on_for = simulation.rng.exponential(self.mean_on)
        simulation.core.schedule(
            on_for, lambda: self._turn_off(simulation, flow_id)
        )

    def _turn_off(self, simulation, flow_id: int) -> None:
        simulation.close_flow(flow_id)
        off_for = simulation.rng.exponential(self.mean_off)
        simulation.core.schedule(off_for, lambda: self._turn_on(simulation))
