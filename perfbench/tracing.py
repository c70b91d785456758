"""Timing wrappers around the public functions of each layer.

A traced run installs a :class:`Tracer` over a list of :class:`Target`
attributes (module functions, class methods), runs the workload, and
restores every original.  Untraced runs install nothing, so the program
runs exactly as shipped.

Each wrapper records wall time and *self* time (wall minus the wall of
wrapped calls made beneath it).  Nesting is tracked through a
:mod:`contextvars` frame, so it follows asyncio tasks and stays separate
per thread: work handed to an executor thread is a top-level span there.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

_FRAME: contextvars.ContextVar = contextvars.ContextVar("perfbench_frame", default=None)

#: ``on_done(args, kwargs, result, wall, self_time)`` hook of a target.
Hook = Callable[[tuple, dict, Any, float, float], None]


@dataclass
class Target:
    """One attribute to wrap.

    ``mode="call"`` times each call.  ``mode="callback"`` times nothing
    itself but wraps the callable passed at position ``callback_arg``
    (counting ``self`` for methods) or as keyword ``callback``, so the
    work a scheduler later runs is timed.
    """

    owner: Any
    attr: str
    name: str
    layer: str
    mode: str = "call"
    callback_arg: int = 2
    on_done: Optional[Hook] = None


class Stat:
    __slots__ = ("layer", "calls", "wall", "self_time", "samples")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.wall = 0.0
        self.self_time = 0.0
        self.samples: List[float] = []

    def as_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "wall": self.wall,
            "self": self.self_time,
            "samples": list(self.samples),
        }


class Tracer:
    """Collects spans and counters; installs and restores wrappers."""

    #: Per-span duration samples kept for percentiles; totals stay exact.
    MAX_SAMPLES = 200_000

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: Dict[str, Stat] = {}
        self._counters: Dict[str, float] = {}
        self._installed: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, name: str, layer: str, wall: float, self_time: float) -> None:
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = Stat(layer)
            stat.calls += 1
            stat.wall += wall
            stat.self_time += self_time
            if len(stat.samples) < self.MAX_SAMPLES:
                stat.samples.append(wall)

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def sample(self, name: str, layer: str, seconds: float) -> None:
        """Record a derived duration (no self time) for percentiles only."""
        with self._lock:
            stat = self._stats.get(name)
            if stat is None:
                stat = self._stats[name] = Stat(layer)
            stat.calls += 1
            stat.wall += seconds
            if len(stat.samples) < self.MAX_SAMPLES:
                stat.samples.append(seconds)

    def discount(self, name: str, seconds: float) -> None:
        """Move ``seconds`` out of a span's self time.

        For time a span spent awaiting work that another thread records
        under its own span, so the two are not counted twice.
        """
        with self._lock:
            stat = self._stats.get(name)
            if stat is not None:
                stat.self_time -= seconds

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data copy of everything recorded since the last snapshot."""
        with self._lock:
            data = {
                "spans": {name: stat.as_dict() for name, stat in self._stats.items()},
                "counters": dict(self._counters),
            }
            self._stats = {}
            self._counters = {}
        return data

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Time a block of the benchmark's own code as a span."""
        frame = [0.0]
        token = _FRAME.set(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - started
            _FRAME.reset(token)
            parent = _FRAME.get()
            if parent is not None:
                parent[0] += wall
            self.record(name, layer, wall, wall - frame[0])

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _timed(self, function: Callable, target: Target) -> Callable:
        """A wrapper timing each call of ``function`` (sync or async)."""
        name, layer, hook = target.name, target.layer, target.on_done

        def finish(frame, token, started):
            wall = time.perf_counter() - started
            _FRAME.reset(token)
            parent = _FRAME.get()
            if parent is not None:
                parent[0] += wall
            self_time = wall - frame[0]
            self.record(name, layer, wall, self_time)
            return wall, self_time

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                frame = [0.0]
                token = _FRAME.set(frame)
                started = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                except BaseException:
                    finish(frame, token, started)
                    raise
                wall, self_time = finish(frame, token, started)
                if hook is not None:
                    hook(args, kwargs, result, wall, self_time)
                return result

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = [0.0]
            token = _FRAME.set(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                finish(frame, token, started)
                raise
            wall, self_time = finish(frame, token, started)
            if hook is not None:
                hook(args, kwargs, result, wall, self_time)
            return result

        return traced

    def _callback_wrapper(self, function: Callable, target: Target) -> Callable:
        name, layer, record = target.name, target.layer, self.record
        index = target.callback_arg

        def timed(callback: Callable[[], Any]) -> Callable[[], Any]:
            # Scheduler callbacks take no arguments; a bare closure keeps
            # the per-event cost of tracing small.
            def timed_callback():
                frame = [0.0]
                token = _FRAME.set(frame)
                started = time.perf_counter()
                try:
                    return callback()
                finally:
                    wall = time.perf_counter() - started
                    _FRAME.reset(token)
                    parent = _FRAME.get()
                    if parent is not None:
                        parent[0] += wall
                    record(name, layer, wall, wall - frame[0])

            return timed_callback

        @functools.wraps(function)
        def scheduling(*args, **kwargs):
            if "callback" in kwargs:
                kwargs["callback"] = timed(kwargs["callback"])
            elif len(args) > index:
                args = args[:index] + (timed(args[index]),) + args[index + 1:]
            return function(*args, **kwargs)

        return scheduling

    def install(self, targets: List[Target]) -> None:
        """Wrap every target attribute; :meth:`restore` undoes it."""
        for target in targets:
            owned = target.attr in vars(target.owner)
            original = getattr(target.owner, target.attr)
            if target.mode == "callback":
                wrapper = self._callback_wrapper(original, target)
            else:
                wrapper = self._timed(original, target)
            self._installed.append((target.owner, target.attr, original, owned))
            setattr(target.owner, target.attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self, targets: List[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()


# ----------------------------------------------------------------------
# Turning a snapshot into layer accounting
# ----------------------------------------------------------------------
def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    spans: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, float] = {}
    for snap in snapshots:
        for name, entry in snap["spans"].items():
            into = spans.setdefault(
                name,
                {"layer": entry["layer"], "calls": 0, "wall": 0.0, "self": 0.0, "samples": []},
            )
            into["calls"] += entry["calls"]
            into["wall"] += entry["wall"]
            into["self"] += entry["self"]
            into["samples"].extend(entry["samples"])
        for name, amount in snap["counters"].items():
            counters[name] = counters.get(name, 0.0) + amount
    return {"spans": spans, "counters": counters}


def layer_self_times(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Seconds of self time per layer."""
    totals: Dict[str, float] = {}
    for entry in snapshot["spans"].values():
        totals[entry["layer"]] = totals.get(entry["layer"], 0.0) + entry["self"]
    return totals


def span_wall(snapshot: Dict[str, Any], *names: str) -> float:
    return sum(snapshot["spans"].get(name, {}).get("wall", 0.0) for name in names)


def span_calls(snapshot: Dict[str, Any], *names: str) -> int:
    return sum(snapshot["spans"].get(name, {}).get("calls", 0) for name in names)


def span_samples(snapshot: Dict[str, Any], *names: str) -> List[float]:
    samples: List[float] = []
    for name in names:
        samples.extend(snapshot["spans"].get(name, {}).get("samples", []))
    return samples
