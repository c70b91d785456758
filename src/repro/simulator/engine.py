"""Discrete-event simulation engine: the one event loop of the repo.

:class:`EventLoop` is a small event-driven kernel in the style of ns-2's
scheduler.  It serves both simulators: the packet-level
:class:`Simulator` (links, queues and protocol agents in the sibling
modules schedule callbacks on it, and it adds the run's random
generator) and the flow-level :class:`repro.flowsim.core.FlowSimCore`.

Heap entries are ``(time, sequence, event)`` tuples.  ``heapq`` then
orders them by comparing a float and, on equal times, a unique insertion
counter -- both in C, never reaching the :class:`Event` -- so ties break
by insertion order and a run is fully deterministic for a given seed.

:meth:`EventLoop.stop` ends the current :meth:`~EventLoop.run` after the
executing event returns and leaves the clock at that event's time, so
the events still pending run later at their own times and the clock
never goes backwards.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import telemetry

__all__ = ["Event", "PeriodicEvent", "EventLoop", "Simulator"]

Callback = Callable[[], None]


class Event:
    """A scheduled callback.  Cancelling sets a flag; the heap entry stays."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callback) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class PeriodicEvent:
    """Handle for a recurring callback; ``cancel()`` stops the recurrence.

    The underlying one-shot event re-arms itself after every firing, so
    the handle tracks the *current* pending event rather than a fixed
    one.
    """

    __slots__ = ("interval", "callback", "_loop", "_pending", "cancelled")

    def __init__(self, loop: "EventLoop", interval: float, callback: Callback) -> None:
        self.interval = interval
        self.callback = callback
        self._loop = loop
        self._pending: Optional[Event] = None
        self.cancelled = False

    def _arm(self, at_time: float) -> None:
        self._pending = self._loop.schedule_at(at_time, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.callback()
        if not self.cancelled:
            self._arm(self._loop.now + self.interval)

    def cancel(self) -> None:
        """Stop the recurrence; a pending firing is cancelled too."""
        self.cancelled = True
        if self._pending is not None:
            self._pending.cancel()


class EventLoop:
    """Heapq event loop with deterministic tie-breaking.

    Subclasses name their telemetry instruments in :meth:`_report`.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._stopped = False
        #: Total non-cancelled events executed across all :meth:`run` calls.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0.0:  # NaN fails too
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if not time >= self._now:  # NaN fails too
            raise ValueError(
                "cannot schedule in the past or at NaN "
                f"(now={self._now}, requested={time})"
            )
        event = Event(time, callback)
        heapq.heappush(self._heap, (time, next(self._counter), event))
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callback,
        start: Optional[float] = None,
    ) -> PeriodicEvent:
        """Run ``callback`` every ``interval`` seconds until cancelled.

        The first firing happens at ``start`` (absolute time, default
        ``now + interval``); subsequent firings follow ``interval``
        seconds after the previous one completes.  Each re-arm goes
        through :meth:`schedule_at`.
        """
        if not interval > 0.0:
            raise ValueError(f"interval must be positive, got {interval}")
        periodic = PeriodicEvent(self, interval, callback)
        periodic._arm(self._now + interval if start is None else start)
        return periodic

    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Run the loop until the clock reaches ``until`` seconds.

        A run that processed events reports its event count and wall
        time through :meth:`_report` to the always-on
        :mod:`repro.telemetry` counters.  The per-event cost is a single
        local increment -- the timing calls and the report happen once
        per :meth:`run`, never inside the loop.
        """
        if not until >= self._now:
            raise ValueError(
                f"cannot run to a time in the past (now={self._now}, until={until})"
            )
        self._stopped = False
        started = time.perf_counter()
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap and not self._stopped:
            when, _, event = heap[0]
            if when > until:
                break
            pop(heap)
            if event.cancelled:
                continue
            self._now = when
            event.callback()
            processed += 1
        if not self._stopped:
            self._now = until
        self.events_processed += processed
        if processed:
            self._report(processed, time.perf_counter() - started)

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns.

        The clock stays at that event's time; pending events remain
        scheduled for the next :meth:`run`.
        """
        self._stopped = True

    def _report(self, processed: int, wall: float) -> None:
        """Publish one run's event count and wall time."""


class Simulator(EventLoop):
    """Packet-level event loop with the run's random generator.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random generator.  All stochastic
        components (RED dropping, Poisson sources, jitter) must draw from
        :attr:`rng` so a run is reproducible from this single seed.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        self.rng = np.random.default_rng(seed)

    def _report(self, processed: int, wall: float) -> None:
        telemetry.incr("simulator.runs")
        telemetry.incr("simulator.events", processed)
        telemetry.observe("simulator.run_wall", wall)
        if wall > 0.0:
            telemetry.observe("simulator.events_per_s", processed / wall)
