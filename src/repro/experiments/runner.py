"""Campaign executor: expand a spec into points and run them.

:class:`ExperimentRunner` executes the points of an
:class:`~repro.experiments.spec.ExperimentSpec` either serially (in
process) or in parallel through a
:class:`concurrent.futures.ProcessPoolExecutor`.  Campaigns of the
:data:`~repro.experiments.registry.IN_PROCESS_KINDS` (montecarlo and
shortflow, whose points cost less than the pool's start-up and pickling)
always run serially in process.  Three guarantees hold in both modes:

* **deterministic ordering** — the returned
  :class:`CampaignResult` lists one :class:`PointResult` per grid point,
  in grid-expansion order, regardless of completion order;
* **identical values** — each point's seed is derived from its axis
  values, not its schedule, so serial and parallel runs of the same spec
  produce identical results point for point;
* **failure isolation** — a point that raises records an ``error`` row
  (exception type and message) and the campaign carries on.

When a :class:`~repro.experiments.store.ResultStore` is attached, points
whose key already has a successful record are returned as ``cached`` rows
without re-executing, and fresh results are appended to the store.

Point outcomes always feed the process-wide
``experiments.points.{ok,cached,error}`` counters of
:mod:`repro.telemetry`, and each executed point's compute time (measured
where it ran) the ``experiments.compute`` histogram.  The process-pool
path also records the rest of each point's turnaround -- time between
submission and completion not spent computing -- as the
``experiments.queue_wait`` histogram.  With spans enabled, each campaign
additionally runs under an ``experiments.campaign`` span and every point
under an ``experiments.point`` span tagged with its status (and
exception type on failure).
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import telemetry
from .registry import IN_PROCESS_KINDS, resolve_runner
from .spec import ExperimentPoint, ExperimentSpec
from .store import ResultStore

__all__ = ["ExperimentRunner", "CampaignResult", "PointResult", "execute_point"]

#: Progress callback signature: (completed points, total points, last result).
ProgressCallback = Callable[[int, int, "PointResult"], None]


@dataclass(frozen=True)
class PointResult:
    """Outcome of one campaign point.

    ``status`` is ``"ok"`` (executed successfully), ``"cached"`` (reused
    from the store) or ``"error"`` (the runner raised; ``error`` holds the
    exception text and ``value`` is None).
    """

    point: ExperimentPoint
    status: str
    value: Optional[Dict[str, Any]]
    error: Optional[str] = None
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class CampaignResult:
    """All point results of one campaign, in grid-expansion order."""

    spec: ExperimentSpec
    results: List[PointResult] = field(default_factory=list)

    @property
    def num_points(self) -> int:
        return len(self.results)

    @property
    def num_executed(self) -> int:
        return sum(1 for result in self.results if result.status == "ok")

    @property
    def num_cached(self) -> int:
        return sum(1 for result in self.results if result.status == "cached")

    @property
    def num_failed(self) -> int:
        return sum(1 for result in self.results if result.status == "error")

    def values(self) -> List[Optional[Dict[str, Any]]]:
        """The value dictionaries, in point order (None for failed points)."""
        return [result.value for result in self.results]

    def failures(self) -> List[PointResult]:
        return [result for result in self.results if result.status == "error"]

    def raise_errors(self) -> None:
        """Raise if any point failed, quoting the first failure."""
        failed = self.failures()
        if failed:
            first = failed[0]
            raise RuntimeError(
                f"{len(failed)}/{self.num_points} points of campaign "
                f"{self.spec.name!r} failed; first failure at point "
                f"{first.point.index} {first.point.axes}: {first.error}"
            )


def execute_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one point payload, catching failures into an error record.

    Module-level so that :class:`ProcessPoolExecutor` can pickle it; the
    returned dictionary is JSON-safe either way, which is what failure
    isolation requires (the exception object itself never crosses the
    process boundary).
    """
    started = time.perf_counter()
    try:
        runner_function = resolve_runner(payload["runner"])
        value = runner_function(payload["params"], payload.get("seed"))
        return {
            "status": "ok",
            "value": value,
            "error": None,
            "duration": time.perf_counter() - started,
        }
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return {
            "status": "error",
            "value": None,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "duration": time.perf_counter() - started,
        }


class ExperimentRunner:
    """Execute campaigns serially or on a process pool.

    Parameters
    ----------
    workers:
        Process count; ``None``, 0 or 1 run serially in-process.
        Campaigns of the in-process kinds (montecarlo, shortflow) run
        serially whatever the count.
    store:
        Optional :class:`ResultStore` (or a ``str`` or path-like path to
        one) for caching and persistence.
    progress:
        Optional callback invoked after every point with
        ``(completed, total, point_result)``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        store: Optional[Any] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        self.store = (
            ResultStore(store) if isinstance(store, (str, os.PathLike)) else store
        )
        self.progress = progress

    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec, force: bool = False) -> CampaignResult:
        """Run one campaign; with ``force`` the store cache is bypassed."""
        points = spec.expand()
        total = len(points)
        slots: List[Optional[PointResult]] = [None] * total
        completed = 0
        workers = 1 if spec.runner in IN_PROCESS_KINDS else self.workers or 1

        with telemetry.span(
            "experiments.campaign",
            spec=spec.name,
            runner=spec.runner,
            points=total,
            workers=workers,
        ) as campaign_span:
            pending: List[ExperimentPoint] = []
            for point in points:
                cached = None if force else self._lookup(point)
                if cached is not None:
                    slots[point.index] = cached
                    completed += 1
                    telemetry.incr("experiments.points.cached")
                    self._report(completed, total, cached)
                else:
                    pending.append(point)

            if pending:
                if workers > 1:
                    completed = self._run_parallel(
                        spec, pending, slots, completed, total
                    )
                else:
                    completed = self._run_serial(
                        spec, pending, slots, completed, total
                    )
            campaign_span.set("executed", len(pending))
            campaign_span.set("cached", total - len(pending))

        assert all(slot is not None for slot in slots)
        return CampaignResult(spec=spec, results=list(slots))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _lookup(self, point: ExperimentPoint) -> Optional[PointResult]:
        if self.store is None:
            return None
        if point.seed is None:
            # An unseeded point draws fresh randomness on every run; its
            # key would still match, so replaying a stored draw as a cache
            # hit would silently turn it deterministic.
            return None
        record = self.store.get_ok(point.key())
        if record is None:
            return None
        return PointResult(
            point=point,
            status="cached",
            value=record.get("value"),
            error=None,
            duration=0.0,
        )

    def _record(self, spec: ExperimentSpec, point: ExperimentPoint,
                outcome: Dict[str, Any]) -> PointResult:
        result = PointResult(
            point=point,
            status=outcome["status"],
            value=outcome.get("value"),
            error=outcome.get("error"),
            duration=float(outcome.get("duration", 0.0)),
        )
        if self.store is not None:
            record = {
                "key": point.key(),
                "spec_name": spec.name,
                "runner": point.runner,
                "params": point.params,
                "axes": point.axes,
                "seed": point.seed,
                "status": result.status,
                "value": result.value,
                "error": result.error,
                "duration": result.duration,
            }
            if outcome.get("traceback"):
                record["traceback"] = outcome["traceback"]
            self.store.put(record)
        return result

    def _report(self, completed: int, total: int, result: PointResult) -> None:
        if self.progress is not None:
            self.progress(completed, total, result)

    # ------------------------------------------------------------------
    @staticmethod
    def _note_parallel_point(
        point: ExperimentPoint,
        outcome: Dict[str, Any],
        turnaround: float,
    ) -> None:
        """Count one pool-executed point: compute vs queue-wait split.

        The compute time was measured inside the worker process (it is
        part of the outcome); the remainder of the turnaround -- pickle
        transfer, executor queueing, waiting behind other points on a
        busy pool -- is the queue wait.  With spans enabled, the span
        record is synthesised with those measured durations rather than
        timed here, since the work did not happen on this thread.
        """
        status = outcome["status"]
        compute = float(outcome.get("duration", 0.0))
        queue_wait = max(0.0, turnaround - compute)
        telemetry.incr(f"experiments.points.{status}")
        telemetry.observe("experiments.compute", compute)
        telemetry.observe("experiments.queue_wait", queue_wait)
        if not telemetry.enabled():
            return
        record = {
            "name": "experiments.point",
            "path": "experiments.campaign/experiments.point",
            "depth": 1,
            "wall_s": turnaround,
            "cpu_s": compute,
            "status": status,
            "attributes": {
                "index": point.index,
                "runner": point.runner,
                "status": status,
                "compute_s": compute,
                "queue_wait_s": queue_wait,
                "pool": True,
            },
        }
        if status == "error":
            error = outcome.get("error") or ""
            record["error"] = error.split(":", 1)[0]
            record["attributes"]["error"] = record["error"]
        telemetry.get_registry().record_span(record)
        telemetry.observe("span:experiments.point", turnaround)

    def _run_serial(self, spec, pending, slots, completed, total) -> int:
        for point in pending:
            with telemetry.span(
                "experiments.point",
                index=point.index,
                runner=point.runner,
            ) as point_span:
                outcome = execute_point(point.payload())
                point_span.set("status", outcome["status"])
                if outcome["status"] == "error":
                    error = outcome.get("error") or ""
                    point_span.set("error", error.split(":", 1)[0])
            telemetry.incr(f"experiments.points.{outcome['status']}")
            telemetry.observe(
                "experiments.compute", float(outcome.get("duration", 0.0))
            )
            result = self._record(spec, point, outcome)
            slots[point.index] = result
            completed += 1
            self._report(completed, total, result)
        return completed

    def _run_parallel(self, spec, pending, slots, completed, total) -> int:
        max_workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=max_workers) as executor:
            futures = {}
            for point in pending:
                future = executor.submit(execute_point, point.payload())
                futures[future] = (point, time.perf_counter())
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    point, submitted_at = futures[future]
                    exc = future.exception()
                    if exc is not None:
                        # A worker died (e.g. BrokenProcessPool) before the
                        # in-worker isolation could catch anything.
                        outcome = {
                            "status": "error",
                            "value": None,
                            "error": f"{type(exc).__name__}: {exc}",
                            "duration": 0.0,
                        }
                    else:
                        outcome = future.result()
                    self._note_parallel_point(
                        point, outcome, time.perf_counter() - submitted_at
                    )
                    result = self._record(spec, point, outcome)
                    slots[point.index] = result
                    completed += 1
                    self._report(completed, total, result)
        return completed
