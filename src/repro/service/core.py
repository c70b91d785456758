"""The prediction service: memoised ``simulate``/``simulate_batch`` serving.

:class:`PredictionService` is the transport-independent core behind the
HTTP front-end (:mod:`repro.service.http`): asyncio coroutines
:meth:`~PredictionService.predict` and
:meth:`~PredictionService.predict_batch` that validate a JSON-shaped
request, canonicalise it into a cache key, and either answer from the
memoising cache tier (:class:`~repro.experiments.store.MemoisingStore`)
or compute through the ``repro.api`` kernels on a thread pool.

Keys are *grid-point canonical*: every component reference in a request
is resolved through its registry and re-serialised to its canonical
config before hashing, so ``"sqrt"``, ``{"kind": "sqrt"}`` and the
``(loss_event_rate, cv)`` shorthand for the shifted exponential all hash
identically to their fully-spelled forms -- a config and its JSON
round-trip always hit the same cache entry.  The service schema version
is part of every key, so responses cached under an old schema can never
be replayed into a new one.

Concurrent identical requests are *single-flighted*: the first request
registers an in-flight future under its key before touching the thread
pool, later arrivals await that future, and the kernel runs exactly once
(``coalesced`` in the stats; asserted by the test suite with N
``asyncio.gather``-ed clients).

Batch requests are sharded across the thread pool through
:mod:`repro.service.workers` when the grid form allows it -- the merged
response is bit-for-bit the unsharded ``simulate_batch`` result.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Mapping, Optional, Tuple

from .. import api, telemetry
from ..api.simulate import require_iid
from ..experiments.store import MemoisingStore, _json_safe, result_key
from ..lossprocess.iid import ShiftedExponentialIntervals
from .workers import merge_shard_results, plan_shards, shard_num_points

__all__ = [
    "BadRequest",
    "PredictionService",
    "SCHEMA_VERSION",
    "ServiceConfig",
    "batch_request_key",
    "canonical_batch_request",
    "canonical_sim_request",
    "prediction_key",
]

#: Version of the request/response (and cached value) schema.  Part of
#: every cache key: bumping it invalidates cached predictions instead of
#: replaying them across incompatible shapes.
SCHEMA_VERSION = 1


class BadRequest(ValueError):
    """A request the service refuses: malformed shape or invalid config."""


# ----------------------------------------------------------------------
# Request canonicalisation and keys
# ----------------------------------------------------------------------
def _sim_config(payload: Any) -> api.SimConfig:
    if isinstance(payload, api.SimConfig):
        return payload
    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"predict request must be a JSON object shaped like SimConfig, "
            f"got {type(payload).__name__}"
        )
    try:
        return api.SimConfig.from_dict(payload)
    except (TypeError, ValueError, KeyError) as exc:
        raise BadRequest(f"invalid SimConfig request: {exc}") from exc


def _batch_config(payload: Any) -> api.BatchConfig:
    if isinstance(payload, api.BatchConfig):
        return payload
    if not isinstance(payload, Mapping):
        raise BadRequest(
            f"batch request must be a JSON object shaped like BatchConfig, "
            f"got {type(payload).__name__}"
        )
    try:
        return api.BatchConfig.from_dict(payload)
    except (TypeError, ValueError, KeyError) as exc:
        raise BadRequest(f"invalid BatchConfig request: {exc}") from exc


def canonical_sim_request(config: api.SimConfig) -> Dict[str, Any]:
    """The canonical payload a single-point request is keyed by.

    Components are resolved and re-serialised through their registries,
    so every spelling of the same evaluation point (kind string, partial
    config, ``(p, cv)`` shorthand, ready instance) canonicalises to one
    payload.  Raises :class:`BadRequest` on unknown kinds or invalid
    parameters, and on a non-i.i.d. loss process under the analytic
    method.
    """
    try:
        formula = api.FORMULAS.to_config(config.resolve_formula())
        resolved = config.resolve_loss_process()
        if config.method == "analytic":
            require_iid(resolved)
        process = api.LOSS_PROCESSES.to_config(resolved)
        profile = api.WEIGHT_PROFILES.to_config(config.resolve_profile())
    except (TypeError, ValueError, KeyError) as exc:
        raise BadRequest(f"invalid component in request: {exc}") from exc
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "predict",
        "control": config.control,
        "method": config.method,
        "num_events": int(config.num_events),
        "seed": config.seed,
        "formula": formula,
        "loss_process": process,
        "profile": profile,
    }


def canonical_batch_request(config: api.BatchConfig) -> Dict[str, Any]:
    """The canonical payload a batch request is keyed by.

    Validates every grid axis as :func:`canonical_sim_request` validates
    one point, at a cost linear in the axis lengths: raises
    :class:`BadRequest` if any window length, loss model or (p, cv)
    value of the grid would fail to resolve, or if an analytic grid
    names a non-i.i.d. loss process.
    """
    try:
        formulas = [
            api.FORMULAS.to_config(api.FORMULAS.from_config(formula))
            for formula in config.formulas
        ]
        profile = config.profile
        if isinstance(profile, str):
            profile = {"kind": profile}
        for length in config.history_lengths:
            config.profile_for(int(length))
        if config.loss_processes is None:
            processes = None
            # The constructor checks p and cv independently, so each
            # value checked against a valid partner covers the product.
            for rate in config.loss_event_rates:
                ShiftedExponentialIntervals.from_loss_rate_and_cv(
                    float(rate), 1.0
                )
            for cv in config.coefficients_of_variation:
                ShiftedExponentialIntervals.from_loss_rate_and_cv(
                    1.0, float(cv)
                )
        else:
            resolved = [
                api.LOSS_PROCESSES.from_config(process)
                for process in config.loss_processes
            ]
            if config.method == "analytic":
                for process in resolved:
                    require_iid(process)
            processes = [
                api.LOSS_PROCESSES.to_config(process) for process in resolved
            ]
    except (TypeError, ValueError, KeyError) as exc:
        raise BadRequest(f"invalid component in request: {exc}") from exc
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "predict-batch",
        "control": config.control,
        "method": config.method,
        "num_events": int(config.num_events),
        "seed": config.seed,
        "share_noise": bool(config.share_noise),
        "seed_axes": config.seed_axes,
        "formulas": formulas,
        "history_lengths": [int(length) for length in config.history_lengths],
        "loss_event_rates": config.loss_event_rates,
        "coefficients_of_variation": config.coefficients_of_variation,
        "loss_processes": processes,
        "profile": profile,
    }


def prediction_key(config: api.SimConfig) -> str:
    """Cache key of one single-point prediction request."""
    return result_key(canonical_sim_request(config))


def batch_request_key(config: api.BatchConfig) -> str:
    """Cache key of one batch prediction request."""
    return result_key(canonical_batch_request(config))


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`PredictionService` instance."""

    cache_capacity: int = 4096
    store_path: Optional[str] = None
    workers: int = 2
    max_batch_points: int = 100_000

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.max_batch_points < 1:
            raise ValueError("max_batch_points must be at least 1")


class PredictionService:
    """Async facade over the kernels with a memoising cache tier.

    One instance owns a thread pool (kernels are numpy-bound and release
    the GIL for the heavy passes) and a
    :class:`~repro.experiments.store.MemoisingStore`.  All public
    coroutines are safe to call concurrently from one event loop.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.memo = MemoisingStore(
            capacity=self.config.cache_capacity,
            store=self.config.store_path,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        self._counter_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "requests_predict": 0,
            "requests_batch": 0,
            "coalesced": 0,
            "computes_predict": 0,
            "computes_batch": 0,
            "compute_shards": 0,
            "bad_requests": 0,
        }
        self.started_at = time.time()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._executor.shutdown(wait=True)

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount
        telemetry.incr(f"service.{name}", amount)

    # ------------------------------------------------------------------
    # Single-flight plumbing
    # ------------------------------------------------------------------
    async def _memoised(
        self, key: str, compute: Callable[[], Awaitable[Any]], kind: str
    ) -> Tuple[str, Any]:
        """Answer a keyed request: cache, in-flight wait, or compute once.

        Returns ``(cache outcome, value)``.  ``compute`` returns an
        awaitable of the JSON-safe value, which is memoised under
        ``kind``.  The in-flight future is registered *before* the first
        await, so every coroutine that checks after this one awaits the
        same computation.
        """
        value = self.memo.get(key)
        if value is not None:
            return "hit", value
        pending = self._inflight.get(key)
        if pending is not None:
            self._count("coalesced")
            return "coalesced", await asyncio.shield(pending)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            value = await compute()
        # noqa: BLE001 - re-raised after the coalesced waiters get it
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # Mark retrieved so a request with no coalesced waiters
                # does not log "exception was never retrieved".
                future.exception()
            raise
        else:
            self.memo.put(key, value, kind=kind)
            if not future.cancelled():
                future.set_result(value)
            return "miss", value
        finally:
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def predict(self, payload: Any) -> Dict[str, Any]:
        """Evaluate (or recall) one ``SimConfig``-shaped request."""
        self._count("requests_predict")
        try:
            config = _sim_config(payload)
            key = prediction_key(config)
        except BadRequest:
            self._count("bad_requests")
            raise

        def compute() -> Dict[str, Any]:
            self._count("computes_predict")
            with telemetry.span("service.compute", kind="predict"):
                return _json_safe(api.simulate(config).to_dict())

        loop = asyncio.get_running_loop()
        cache, value = await self._memoised(
            key,
            lambda: loop.run_in_executor(self._executor, compute),
            "service-prediction",
        )
        return {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "cache": cache,
            "result": value,
        }

    async def predict_batch(self, payload: Any) -> Dict[str, Any]:
        """Evaluate (or recall) a whole ``BatchConfig``-shaped grid."""
        self._count("requests_batch")
        try:
            config = _batch_config(payload)
            key = batch_request_key(config)
            num_rows = (
                len(config.formulas)
                * len(config.history_lengths)
                * shard_num_points(config)
            )
            if num_rows > self.config.max_batch_points:
                raise BadRequest(
                    f"batch expands to {num_rows} rows, above the service "
                    f"limit of {self.config.max_batch_points}"
                )
        except BadRequest:
            self._count("bad_requests")
            raise
        shards = plan_shards(config, self.config.workers)

        async def compute() -> List[Dict[str, Any]]:
            loop = asyncio.get_running_loop()
            with telemetry.span(
                "service.compute", kind="predict-batch", shards=len(shards)
            ):
                self._count("computes_batch")
                self._count("compute_shards", len(shards))
                batches = await asyncio.gather(
                    *(
                        loop.run_in_executor(
                            self._executor, api.simulate_batch, shard
                        )
                        for shard in shards
                    )
                )
            results = merge_shard_results(config, shards, batches)
            return [_json_safe(result.to_dict()) for result in results]

        cache, value = await self._memoised(key, compute, "service-batch")
        return {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "cache": cache,
            "num_results": len(value),
            "shards": len(shards),
            "results": value,
        }

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the service and cache-tier counters."""
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "schema_version": SCHEMA_VERSION,
            "uptime_s": time.time() - self.started_at,
            "workers": self.config.workers,
            "requests": {
                "predict": counters["requests_predict"],
                "batch": counters["requests_batch"],
                "bad": counters["bad_requests"],
            },
            "computes": {
                "predict": counters["computes_predict"],
                "batch": counters["computes_batch"],
                "shards": counters["compute_shards"],
            },
            "coalesced": counters["coalesced"],
            "cache": self.memo.stats,
        }
