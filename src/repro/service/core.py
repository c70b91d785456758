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
starts the compute as a task and registers it under its key before
touching the thread pool, later arrivals await that task, and the
kernel runs exactly once (``coalesced`` in the stats; asserted by the
test suite with N ``asyncio.gather``-ed clients).  A requester that is
cancelled while it waits leaves the task running, so the others still
get the value and the cache still memoises it.

Batch requests are sharded across the thread pool through
:mod:`repro.service.workers` when the grid form allows it -- the merged
response is bit-for-bit the unsharded ``simulate_batch`` result.

A warm ``/predict`` hit can skip all of that.  The service keeps a map,
bounded like the LRU, from the SHA-256 digest of an exact request body
that :meth:`~PredictionService.predict` answered to its key, value and
encoded hit response.  The HTTP front-end asks
:meth:`~PredictionService.stored_hit` before it decodes a body: while
the key is still in the LRU, the hit is counted as ``predict`` counts
one and the stored bytes are the response.

Requests, computes and cache lookups are counted only in the process-wide
:mod:`repro.telemetry` registry, which :meth:`PredictionService.stats`
reads.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

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
    "encode_body",
    "prediction_key",
]

#: Version of the request/response (and cached value) schema.  Part of
#: every cache key: bumping it invalidates cached predictions instead of
#: replaying them across incompatible shapes.
SCHEMA_VERSION = 1

#: Rows a batch request may expand to; a larger grid is a 400.
MAX_BATCH_ROWS = 100_000


class BadRequest(ValueError):
    """A request the service refuses: malformed shape or invalid config."""


#: One encoder for every response body; ``json.dumps(..., allow_nan=False)``
#: would build a new one per call.
_RESPONSE_ENCODER = json.JSONEncoder(allow_nan=False)


def encode_body(payload: Mapping[str, Any]) -> bytes:
    """A response payload as strict-JSON UTF-8 bytes."""
    return _RESPONSE_ENCODER.encode(payload).encode("utf-8")


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
            config.profile_for(length)
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
def _prediction_response(key: str, cache: str, value: Any) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "key": key,
        "cache": cache,
        "result": value,
    }


def _hit_entry(key: str, value: Any) -> Tuple[str, Any, bytes]:
    """A :attr:`PredictionService.stored_hits` entry, its hit encoded once."""
    return key, value, encode_body(_prediction_response(key, "hit", value))


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`PredictionService` instance."""

    cache_capacity: int = 4096
    store_path: Optional[str] = None
    workers: int = 2

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


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
        self._inflight: Dict[str, asyncio.Task] = {}
        #: SHA-256 digest of a ``/predict`` body -> (key, value, encoded
        #: hit response), least recently used first; see :meth:`stored_hit`.
        #: Touched only from the event loop's thread, so it has no lock.
        self.stored_hits: "OrderedDict[bytes, Tuple[str, Any, bytes]]" = (
            OrderedDict()
        )
        self.started_at = time.time()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Single-flight plumbing
    # ------------------------------------------------------------------
    async def _memoised(
        self, key: str, compute: Callable[[], Awaitable[Any]], kind: str
    ) -> Tuple[str, Any]:
        """Answer a keyed request: cache, in-flight wait, or compute once.

        Returns ``(cache outcome, value)``.  ``compute`` returns an
        awaitable of the JSON-safe value.  It runs as its own task,
        registered in ``_inflight`` before the first await, which
        memoises the value under ``kind``.  Every requester awaits the
        task through :func:`asyncio.shield`, so a cancelled requester
        (a client timeout) leaves the compute running for the others.
        """
        value = self.memo.get(key)
        if value is not None:
            return "hit", value
        task = self._inflight.get(key)
        if task is not None:
            telemetry.incr("service.coalesced")
            return "coalesced", await asyncio.shield(task)
        task = asyncio.create_task(self._compute_once(key, compute, kind))
        # A failure nobody awaits any more must not be logged as
        # "exception was never retrieved".
        task.add_done_callback(
            lambda done: done.cancelled() or done.exception()
        )
        self._inflight[key] = task
        return "miss", await asyncio.shield(task)

    async def _compute_once(
        self, key: str, compute: Callable[[], Awaitable[Any]], kind: str
    ) -> Any:
        try:
            value = await compute()
            self.memo.put(key, value, kind=kind)
            return value
        finally:
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def predict(self, payload: Any) -> Dict[str, Any]:
        """Evaluate (or recall) one ``SimConfig``-shaped request."""
        telemetry.incr("service.requests_predict")
        try:
            config = _sim_config(payload)
            key = prediction_key(config)
        except BadRequest:
            telemetry.incr("service.bad_requests")
            raise

        def compute() -> Dict[str, Any]:
            telemetry.incr("service.computes_predict")
            with telemetry.span("service.compute", kind="predict"):
                return _json_safe(api.simulate(config).to_dict())

        loop = asyncio.get_running_loop()
        cache, value = await self._memoised(
            key,
            lambda: loop.run_in_executor(self._executor, compute),
            "service-prediction",
        )
        return _prediction_response(key, cache, value)

    def stored_hit(self, body: bytes) -> Optional[bytes]:
        """The encoded hit response to a ``/predict`` body seen before.

        None, for the caller to take :meth:`predict`'s path, when no
        answered body had these exact bytes or its key has left the LRU
        (a key only in the persistent store included).  Otherwise the
        hit is counted as :meth:`predict` counts one -- a request, then a
        :meth:`MemoisingStore.get` that counts ``memo.hit`` and refreshes
        the key's recency -- and the stored bytes are returned.
        """
        digest = hashlib.sha256(body).digest()
        entry = self.stored_hits.get(digest)
        if entry is None or entry[0] not in self.memo.memory:
            return None
        telemetry.incr("service.requests_predict")
        key, value, hit_body = entry
        memoised = self.memo.get(key)
        if memoised is not value:
            # Recomputed or reloaded since the body was stored.
            self.stored_hits[digest] = entry = _hit_entry(key, memoised)
            hit_body = entry[2]
        self.stored_hits.move_to_end(digest)
        return hit_body

    def store_hit(self, body: bytes, response: Mapping[str, Any]) -> None:
        """Remember the hit response to a body :meth:`predict` answered.

        The map holds at most ``cache_capacity`` bodies and drops the
        least recently used.  Keyed by digest, so a large body costs no
        more than a small one.
        """
        digest = hashlib.sha256(body).digest()
        self.stored_hits[digest] = _hit_entry(
            response["key"], response["result"]
        )
        self.stored_hits.move_to_end(digest)
        if len(self.stored_hits) > self.config.cache_capacity:
            self.stored_hits.popitem(last=False)

    async def predict_batch(self, payload: Any) -> Dict[str, Any]:
        """Evaluate (or recall) a whole ``BatchConfig``-shaped grid."""
        telemetry.incr("service.requests_batch")
        try:
            config = _batch_config(payload)
            key = batch_request_key(config)
            num_rows = (
                len(config.formulas)
                * len(config.history_lengths)
                * shard_num_points(config)
            )
            if num_rows > MAX_BATCH_ROWS:
                raise BadRequest(
                    f"batch expands to {num_rows} rows, above the service "
                    f"limit of {MAX_BATCH_ROWS}"
                )
        except BadRequest:
            telemetry.incr("service.bad_requests")
            raise
        shards = plan_shards(config, self.config.workers)

        async def compute() -> List[Dict[str, Any]]:
            loop = asyncio.get_running_loop()
            with telemetry.span(
                "service.compute", kind="predict-batch", shards=len(shards)
            ):
                telemetry.incr("service.computes_batch")
                telemetry.incr("service.compute_shards", len(shards))
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
        """JSON-safe snapshot of the service and cache-tier counters.

        The counts come from the process-wide :mod:`repro.telemetry`
        registry, so they are per process, not per instance (production
        runs one service per process); the cache's size, capacity and
        persistence are this instance's state.
        """
        counter = telemetry.get_registry().counter
        cache: Dict[str, Any] = {
            "hits": int(counter("memo.hit")),
            "store_hits": int(counter("memo.hit_store")),
            "misses": int(counter("memo.miss")),
            "puts": int(counter("memo.put")),
            "evictions": int(counter("memo.lru.eviction")),
            "memory_size": len(self.memo.memory),
            "capacity": self.memo.memory.capacity,
            "persistent": self.memo.store is not None,
        }
        if self.memo.store is not None:
            cache["store_records"] = len(self.memo.store)
        return {
            "schema_version": SCHEMA_VERSION,
            "uptime_s": time.time() - self.started_at,
            "workers": self.config.workers,
            "requests": {
                "predict": int(counter("service.requests_predict")),
                "batch": int(counter("service.requests_batch")),
                "bad": int(counter("service.bad_requests")),
            },
            "computes": {
                "predict": int(counter("service.computes_predict")),
                "batch": int(counter("service.computes_batch")),
                "shards": int(counter("service.compute_shards")),
            },
            "coalesced": int(counter("service.coalesced")),
            "cache": cache,
        }
