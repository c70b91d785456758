"""Tracing spans and the process-local metrics registry.

Design constraints, in order:

1. **Counters always on, spans opt-in.**  :func:`incr`, :func:`observe`
   and :func:`set_gauge` always record into the one process-wide
   registry, at the cost of one lock per call; it is the only place an
   event is counted.  :func:`span` returns one shared no-op object unless
   spans are enabled, so the span log and the ``span:`` histograms cost
   nothing by default.  The instrumentation points in the package sit at
   call granularity (one increment or span per request, store lookup,
   kernel call, campaign point or simulator run) -- never inside per-row
   or per-event loops.
2. **No dependencies.**  Standard library only; importable from every
   layer (including :mod:`repro.simulator.engine`) without cycles.
3. **Thread-safe aggregation.**  Counters and histograms take a lock;
   span *nesting* is tracked per thread so parallel campaign threads
   do not interleave each other's paths.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = [
    "MetricsRegistry",
    "Span",
    "enabled",
    "enable",
    "disable",
    "get_registry",
    "incr",
    "observe",
    "reset",
    "set_gauge",
    "span",
]

ENV_VAR = "REPRO_TELEMETRY"

#: Histograms keep this many of the newest raw observations (older ones
#: are dropped -- long campaigns and servers stay bounded in memory and
#: keep reporting recent values).
HISTOGRAM_CAP = 4096

#: The span log keeps at most this many finished spans.
SPAN_LOG_CAP = 8192


def _env_enabled() -> bool:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


class MetricsRegistry:
    """Counters, gauges, histograms and a bounded finished-span log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Deque[float]] = {}
        self._spans: List[Dict[str, Any]] = []
        self._dropped_spans = 0

    # -- writers -------------------------------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            samples = self._histograms.get(name)
            if samples is None:
                samples = self._histograms[name] = deque(maxlen=HISTOGRAM_CAP)
            samples.append(float(value))

    def record_span(self, record: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._spans) < SPAN_LOG_CAP:
                self._spans.append(record)
            else:
                self._dropped_spans += 1

    # -- readers -------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> List[float]:
        with self._lock:
            return list(self._histograms.get(name, ()))

    def spans(self, name: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Iterate finished spans (a snapshot), optionally by name."""
        with self._lock:
            records = list(self._spans)
        for record in records:
            if name is None or record["name"] == name:
                yield record

    @staticmethod
    def _summarise(samples: Deque[float]) -> Dict[str, float]:
        ordered = sorted(samples)
        count = len(ordered)

        def quantile(q: float) -> float:
            if count == 1:
                return ordered[0]
            position = q * (count - 1)
            low = int(position)
            high = min(low + 1, count - 1)
            fraction = position - low
            return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

        return {
            "count": count,
            "mean": sum(ordered) / count,
            "min": ordered[0],
            "max": ordered[-1],
            "p50": quantile(0.50),
            "p90": quantile(0.90),
        }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view: counters, gauges, histogram summaries, spans."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: self._summarise(samples)
                for name, samples in self._histograms.items()
                if samples
            }
            num_spans = len(self._spans)
            dropped = self._dropped_spans
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "num_spans": num_spans,
            "dropped_spans": dropped,
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._dropped_spans = 0


_REGISTRY = MetricsRegistry()
_ENABLED = _env_enabled()
_STACKS = threading.local()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every counter and histogram lands in."""
    return _REGISTRY


def enabled() -> bool:
    """Are spans being recorded right now?"""
    return _ENABLED


def enable(fresh: bool = False) -> None:
    """Turn span recording on; with ``fresh`` the registry is reset first."""
    global _ENABLED
    if fresh:
        _REGISTRY.reset()
    _ENABLED = True


def disable() -> None:
    """Turn span recording off (the registry keeps what it has)."""
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Clear every counter, gauge, histogram and logged span."""
    _REGISTRY.reset()


def _span_stack() -> List[str]:
    stack = getattr(_STACKS, "stack", None)
    if stack is None:
        stack = []
        _STACKS.stack = stack
    return stack


class Span:
    """One timed section.  Use via :func:`span`, not directly.

    Records wall-clock (``time.perf_counter``) and CPU
    (``time.process_time``) durations, the nesting path of enclosing
    spans on this thread, and free-form attributes set at creation or
    through :meth:`set`.  If an ``items`` attribute is present at exit,
    an ``items_per_s`` rate is derived from the wall duration.  A span
    exited through an exception is tagged ``status="error"`` with the
    exception type (the exception itself propagates).
    """

    __slots__ = (
        "name", "attributes", "path", "depth", "wall", "cpu",
        "_wall_started", "_cpu_started",
    )

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.path = name
        self.depth = 0
        self.wall = 0.0
        self.cpu = 0.0
        self._wall_started = 0.0
        self._cpu_started = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        stack = _span_stack()
        self.depth = len(stack)
        self.path = "/".join(stack + [self.name]) if stack else self.name
        stack.append(self.name)
        self._cpu_started = time.process_time()
        self._wall_started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall = time.perf_counter() - self._wall_started
        self.cpu = time.process_time() - self._cpu_started
        stack = _span_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        status = "ok" if exc_type is None else "error"
        record: Dict[str, Any] = {
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "wall_s": self.wall,
            "cpu_s": self.cpu,
            "status": status,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        items = self.attributes.get("items")
        if isinstance(items, (int, float)) and self.wall > 0.0:
            self.attributes["items_per_s"] = items / self.wall
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        _REGISTRY.record_span(record)
        _REGISTRY.observe(f"span:{self.name}", self.wall)
        return False


class _NullSpan:
    """Shared do-nothing span handed out while spans are disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attributes: Any):
    """A timed, nested section -- or the shared no-op when disabled."""
    if not _ENABLED:
        return _NULL_SPAN
    return Span(name, attributes)


def incr(name: str, amount: float = 1.0) -> None:
    """Add to a counter."""
    _REGISTRY.increment(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value."""
    _REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation."""
    _REGISTRY.observe(name, value)
