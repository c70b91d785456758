"""Persistent, content-addressed result store for experiment campaigns.

Results live in a JSONL file: one record per executed point, keyed by a
stable SHA-256 of the point's ``(runner, params, seed)`` payload (see
:meth:`repro.experiments.spec.ExperimentPoint.key`).  The file is
append-only — re-running a point appends a fresh record and the newest
record for a key wins — so concurrent campaigns can share a store without
rewriting each other's history, and a partially-written last line (e.g.
from a killed run) is skipped rather than poisoning the file; the next
append starts on a fresh line, so it is not lost with the fragment.
Every skipped line -- unparsable, keyless or not a JSON object, anywhere
in the file -- is counted in ``stats["skipped"]``.

The store is what makes campaigns restartable: the runner consults it
before executing a point and reuses any stored successful record (a
*cache hit*).  Failed points are recorded too, for post-mortems, but are
never treated as hits, so the next run retries them.

Every lookup through :meth:`ResultStore.get_ok` is classified -- *hit*
(successful record reused), *miss* (no record), *retry* (a record
exists but failed, so the point re-executes) -- into plain instance
counters (:attr:`ResultStore.stats`, always on, shown by ``repro.cli
experiments run``) and mirrored into the :mod:`repro.telemetry`
``store.*`` counters when telemetry is enabled.

:meth:`ResultStore.load_frame` flattens successful records into rows
(``params`` + scalar result values) for the analysis layer.

Since the prediction service landed, the module is also the repo's
*memoisation tier*: :func:`canonical_payload` / :func:`canonical_json` /
:func:`result_key` define the one serialisation-stable cache key
(sorted-key JSON, tuples as lists, component instances by their
parameter dictionaries -- never ``str(obj)`` memory-address reprs -- so
a payload and its JSON round-trip hash identically), :class:`LRUCache`
is a bounded in-memory layer with hit/miss/eviction counters, and
:class:`MemoisingStore` stacks that LRU in front of an optional
:class:`ResultStore` for grid-point-granularity memoisation with
persistence.  Records written by :meth:`ResultStore.put` carry a
``schema_version`` field (:data:`RECORD_SCHEMA_VERSION`) so future
format changes can migrate or skip old lines explicitly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Mapping, Optional

from .. import telemetry

__all__ = [
    "LRUCache",
    "MemoisingStore",
    "RECORD_SCHEMA_VERSION",
    "ResultStore",
    "canonical_json",
    "canonical_payload",
    "result_key",
]

#: Version stamped on every record :meth:`ResultStore.put` writes.
#: Version 1 records (no ``schema_version`` field) predate the stamp and
#: are still read; bump this when the record shape changes incompatibly.
RECORD_SCHEMA_VERSION = 2


def canonical_payload(value: Any) -> Any:
    """Reduce a payload to the canonical JSON-safe form the keys hash.

    The invariant is *serialisation stability*: a payload and its JSON
    round-trip (``json.loads(json.dumps(payload))``) canonicalise to the
    same form, so the same work is recognised whether the request came
    from Python objects or from a JSON file / HTTP body.  Concretely:

    * mappings keep their entries under string keys (ordering is
      irrelevant -- :func:`canonical_json` sorts);
    * tuples become lists (what JSON would do);
    * bools/ints/strings/None pass through; other integral and real
      scalar types (numpy included) collapse to plain ``int``/``float``;
    * non-finite floats become ``None`` (matching what the store writes);
    * dataclass instances and objects exposing ``to_dict()`` -- e.g. a
      component instance placed directly in a hand-written spec's params
      -- contribute their *parameter dictionaries* tagged with the class
      name.  The previous ``default=str`` fallback rendered such objects
      through ``str()``, which for default reprs embeds the memory
      address: the same spec produced a different key every process, so
      those points never hit the cache.
    """
    if isinstance(value, Mapping):
        return {str(key): canonical_payload(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(entry) for entry in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        entry = float(value)
        return entry if math.isfinite(entry) else None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__component__": type(value).__name__,
            **canonical_payload(dataclasses.asdict(value)),
        }
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return {
            "__component__": type(value).__name__,
            **canonical_payload(to_dict()),
        }
    return str(value)


def canonical_json(payload: Any) -> str:
    """The canonical JSON text of a payload: canonicalised, sorted keys."""
    return json.dumps(
        canonical_payload(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def result_key(payload: Any) -> str:
    """SHA-256 content address of a payload's canonical JSON."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _json_safe(value: Any) -> Any:
    """Map non-finite floats to None so every stored line is strict JSON.

    ``json.dumps`` would otherwise emit bare ``NaN``/``Infinity`` tokens
    (the dumbbell runner routinely produces NaN for under-observed flows),
    which jq, JavaScript and any strict parser reject.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {name: _json_safe(entry) for name, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    return value


class ResultStore:
    """JSONL-backed key/value store of campaign point results."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._records: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.retries = 0
        self.puts = 0
        self.skipped = 0
        self._torn_tail = False
        self._load()

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime cache-lookup counts for this store instance, plus the
        lines the load skipped."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "retries": self.retries,
            "puts": self.puts,
            "skipped": self.skipped,
        }

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        raw = "\n"
        with open(self.path, "r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None  # e.g. a torn write from an interrupted run
                key = record.get("key") if isinstance(record, dict) else None
                if key:
                    self._records[key] = record
                else:
                    self.skipped += 1
        # A last line without its newline is a torn write: the next put
        # starts on a fresh line instead of gluing its record onto it.
        self._torn_tail = not raw.endswith("\n")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The newest record for a key, or None."""
        return self._records.get(key)

    def get_ok(self, key: str) -> Optional[Dict[str, Any]]:
        """The newest record for a key if it was successful, else None.

        Classifies the lookup: hit (reused), miss (unknown key) or retry
        (the newest record failed, so the caller will re-execute).
        """
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            telemetry.incr("store.miss")
            return None
        if record.get("status") == "ok":
            self.hits += 1
            telemetry.incr("store.hit")
            return record
        self.retries += 1
        telemetry.incr("store.retry")
        return None

    def put(self, record: Dict[str, Any]) -> None:
        """Append a record (must carry a ``"key"``) and index it."""
        key = record.get("key")
        if not key:
            raise ValueError("record needs a 'key' field")
        record = _json_safe(record)
        record.setdefault("schema_version", RECORD_SCHEMA_VERSION)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        line = json.dumps(record, default=str, allow_nan=False) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("\n" + line if self._torn_tail else line)
        self._torn_tail = False
        self._records[key] = dict(record)
        self.puts += 1
        telemetry.incr("store.put")

    # ------------------------------------------------------------------
    def records(
        self,
        spec_name: Optional[str] = None,
        runner: Optional[str] = None,
        status: Optional[str] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Iterate the newest record of every key, optionally filtered."""
        for record in self._records.values():
            if spec_name is not None and record.get("spec_name") != spec_name:
                continue
            if runner is not None and record.get("runner") != runner:
                continue
            if status is not None and record.get("status") != status:
                continue
            yield record

    def load_frame(
        self,
        spec_name: Optional[str] = None,
        runner: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Flatten successful records into analysis-ready rows.

        Each row merges the point's parameters with the scalar entries of
        its result value (nested lists/dicts are kept under their own key),
        plus ``seed``, ``runner`` and ``spec_name`` columns.
        """
        rows: List[Dict[str, Any]] = []
        for record in self.records(spec_name=spec_name, runner=runner, status="ok"):
            row: Dict[str, Any] = {
                "spec_name": record.get("spec_name"),
                "runner": record.get("runner"),
                "seed": record.get("seed"),
            }
            row.update(record.get("params", {}))
            value = record.get("value") or {}
            for name, entry in value.items():
                row[name] = entry
            rows.append(row)
        return rows


class LRUCache:
    """Bounded in-memory key/value cache with least-recently-used eviction.

    Thread-safe (the prediction service computes on worker threads while
    the event loop serves lookups).  Lookups through :meth:`get` count as
    *use*; evictions are counted and mirrored into the
    ``memo.lru.eviction`` telemetry counter.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def get(self, key: str) -> Optional[Any]:
        """The cached value (refreshing its recency), or None."""
        with self._lock:
            if key not in self._entries:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) a value, evicting the oldest when full."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            telemetry.incr("memo.lru.eviction", evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class MemoisingStore:
    """Grid-point memoisation tier: an LRU in front of an optional JSONL store.

    :meth:`get` consults the in-memory :class:`LRUCache` first, then the
    persistent :class:`ResultStore` (promoting persistent hits into the
    LRU); :meth:`put` writes both.  Stored values must be JSON-safe --
    callers key them with :func:`result_key` over a canonical request
    payload, which is what makes this a *grid-point* cache rather than a
    campaign-replay cache.  Lookups feed the ``memo.{hit,hit_store,miss,
    put}`` telemetry counters and the always-on :attr:`stats`.
    """

    def __init__(
        self,
        capacity: int = 4096,
        store: Optional[Any] = None,
    ) -> None:
        self.memory = LRUCache(capacity)
        self.store = (
            ResultStore(store) if isinstance(store, (str, os.PathLike)) else store
        )
        self.hits = 0
        self.store_hits = 0
        self.misses = 0
        self.puts = 0

    @property
    def stats(self) -> Dict[str, Any]:
        """Merged lookup / LRU / persistence counters."""
        merged: Dict[str, Any] = {
            "hits": self.hits,
            "store_hits": self.store_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.memory.evictions,
            "memory_size": len(self.memory),
            "capacity": self.memory.capacity,
            "persistent": self.store is not None,
        }
        if self.store is not None:
            merged["store_records"] = len(self.store)
        return merged

    def get(self, key: str) -> Optional[Any]:
        """The memoised value for a key, or None (classifying the lookup)."""
        value = self.memory.get(key)
        if value is not None:
            self.hits += 1
            telemetry.incr("memo.hit")
            return value
        if self.store is not None:
            record = self.store.get_ok(key)
            if record is not None:
                value = record.get("value")
                if value is not None:
                    self.memory.put(key, value)
                    self.store_hits += 1
                    telemetry.incr("memo.hit_store")
                    return value
        self.misses += 1
        telemetry.incr("memo.miss")
        return None

    def put(self, key: str, value: Any, **extra: Any) -> None:
        """Memoise a JSON-safe value under a key (and persist, if backed).

        ``extra`` entries (e.g. the request kind) are stored alongside
        the value in the persistent record for post-mortems.
        """
        self.memory.put(key, value)
        if self.store is not None:
            record = {"key": key, "status": "ok", "value": value}
            record.update(extra)
            self.store.put(record)
        self.puts += 1
        telemetry.incr("memo.put")
