"""The ``predict-http`` workload: open-loop ``/predict`` traffic over loopback.

A server process is built from the public ``PredictionService`` and
``start_service`` (2 workers, in-memory LRU).  One client process holds
2 keep-alive connections and sends:

* an **open loop** -- Poisson arrivals at 20 req/s, mixed 89% ``hit``
  (a warm set of 64 montecarlo-basic points at 2000 events, Zipf
  popularity), 8% ``miss`` (the same axes under a never-used seed, so
  the server runs a cold scalar compute) and 3% ``batch`` (a 32-row
  ``/predict/batch`` grid, ``share_noise=False``, fresh seed).  Each
  request is timed from its due time;
* a **closed loop** -- both connections send warm hits back to back;
  the hit capacity is the median over half-second windows.

The two alternate in five segments each over the measuring time, with the
reference kernel of :mod:`perfbench.calibration` timed before each
segment; the reported times are scaled by it.  Client and server run on
one CPU (see :func:`run`).

Every response is checked: status 200, the ``cache`` field the class
implies, hits byte-equal to the warm value, sampled misses and all
batches byte-equal to an in-process recompute (after the timed phases).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection as Pipe
from typing import Any, Dict, List, Optional, Tuple

from .accounting import Phase, account, overhead
from .calibration import Speed, scaled, speed_note
from .common import (
    ROOT,
    Check,
    Report,
    derive_seed,
    ensure_repro_importable,
    make_rng,
    median,
    peak_rss_mb,
    percentile,
    ratio,
)
from .layers import kernel_metrics, kernel_targets
from .tracing import Target, Tracer, layer_self_times, merge_snapshots, span_samples, span_wall

NAME = "predict-http"
RATE = 20.0
MIX = (("hit", 0.89), ("miss", 0.08), ("batch", 0.03))
FORMULAS = ({"kind": "sqrt", "rtt": 1.0}, {"kind": "pftk-simplified", "rtt": 1.0})
HISTORY_LENGTHS = (2, 8)
LOSS_RATES = (0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
CVS = (0.5, 0.999)
BATCH_LOSS_RATES = (0.01, 0.05, 0.1, 0.2)
EVENTS = 2000
ZIPF_EXPONENT = 1.0
#: Share of the measuring time given to the open loop; the rest is closed.
OPEN_SHARE = 0.7
#: Misses per pass recomputed in-process for the byte-equality check.
MISS_RECOMPUTES = 16
CONNECTIONS = 2
SETUPS = 3
#: How long before a due time the generator stops sleeping and yields.
SPIN_S = 0.0012
#: Closed-loop capacity is the median over windows of this length.
WINDOW_S = 0.5
#: Open- and closed-loop segments alternate this many times per pass.
CYCLES = 5


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _raw(path: str, payload: Dict[str, Any]) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _point(formula, length, rate, cv, seed) -> Dict[str, Any]:
    return {
        "formula": dict(formula),
        "loss_event_rate": rate,
        "coefficient_of_variation": cv,
        "history_length": length,
        "num_events": EVENTS,
        "control": "basic",
        "method": "montecarlo",
        "seed": seed,
    }


def warm_set(seed: int, tiny: bool = False) -> List[Dict[str, Any]]:
    """The 64 warm points: every axis combination, seeds from the workload seed."""
    points = []
    rates = LOSS_RATES[:1] if tiny else LOSS_RATES
    for formula in FORMULAS:
        for length in HISTORY_LENGTHS:
            for rate in rates:
                for cv in CVS:
                    points.append(_point(formula, length, rate, cv,
                                         derive_seed(seed, NAME, "warm", len(points))))
    return points


@dataclass
class Schedule:
    """One open-loop request stream plus a closed-loop hit sequence."""

    offsets: List[float] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)
    payloads: List[Dict[str, Any]] = field(default_factory=list)
    targets: List[int] = field(default_factory=list)  # warm index for hits, else -1
    closed_hits: List[int] = field(default_factory=list)


def _zipf_picks(rng, count: int, size: int) -> List[int]:
    import numpy as np

    ranks = np.arange(1, size + 1, dtype=float)
    weights = ranks ** -ZIPF_EXPONENT
    order = rng.permutation(size)
    return [int(order[k]) for k in rng.choice(size, size=count, p=weights / weights.sum())]


def make_schedule(seed: int, open_seconds: float, warm: List[Dict[str, Any]],
                  label: str = "pass") -> Schedule:
    """The request stream for one pass, a pure function of its arguments.

    Class counts are exact shares of the request count, shuffled; arrival
    times are a Poisson process conditioned on that count (sorted
    uniforms), so every seed sends the same mix at the same rate.
    """
    rng = make_rng(seed, NAME, label, "schedule")
    total = max(len(MIX), int(round(RATE * open_seconds)))
    counts = {name: max(1, int(round(share * total))) for name, share in MIX[1:]}
    counts = {"hit": total - sum(counts.values()), **counts}
    classes = [name for name, count in counts.items() for _ in range(count)]
    classes = [classes[k] for k in rng.permutation(total)]
    offsets = sorted(float(x) for x in rng.uniform(0.0, open_seconds, size=total))
    hits = _zipf_picks(rng, total, len(warm))
    schedule = Schedule(offsets=offsets, classes=classes)
    axes = [(f, l, r, c) for f in FORMULAS for l in HISTORY_LENGTHS for r in LOSS_RATES for c in CVS]
    for index, kind in enumerate(classes):
        if kind == "hit":
            schedule.targets.append(hits[index])
            schedule.payloads.append(warm[hits[index]])
            continue
        schedule.targets.append(-1)
        fresh = derive_seed(seed, NAME, label, kind, index)
        if kind == "miss":
            formula, length, rate, cv = axes[int(rng.integers(len(axes)))]
            schedule.payloads.append(_point(formula, length, rate, cv, fresh))
        else:
            schedule.payloads.append({
                "formulas": [dict(f) for f in FORMULAS],
                "history_lengths": list(HISTORY_LENGTHS),
                "loss_event_rates": list(BATCH_LOSS_RATES),
                "coefficients_of_variation": list(CVS),
                "num_events": EVENTS,
                "seed": fresh,
                "share_noise": False,
            })
    schedule.closed_hits = _zipf_picks(make_rng(seed, NAME, label, "closed"), 4096, len(warm))
    return schedule


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _server_targets(tracer: Tracer) -> List[Target]:
    """Service-layer wrappers, with hooks pairing executor work to requests."""
    from repro.experiments.store import MemoisingStore
    from repro.service import core
    from repro.service.core import PredictionService

    key_of: Dict[int, str] = {}
    shard_key: Dict[int, str] = {}
    simulate_wall: Dict[str, float] = {}
    shard_walls: Dict[str, List[float]] = {}

    def on_key(args, kwargs, result, wall, self_time):
        key_of[id(args[0])] = result

    def on_plan(args, kwargs, result, wall, self_time):
        key = key_of.pop(id(args[0]), None)
        for shard in result:
            shard_key[id(shard)] = key

    def on_simulate(args, kwargs, result, wall, self_time):
        key = key_of.pop(id(args[0]), None)
        if key is not None:
            simulate_wall[key] = wall

    def on_batch(args, kwargs, result, wall, self_time):
        key = shard_key.pop(id(args[0]), None)
        if key is not None:
            shard_walls.setdefault(key, []).append(wall)

    def on_memo_get(args, kwargs, result, wall, self_time):
        tracer.add("memo.lookups", 1.0)
        tracer.add("memo.hits", 0.0 if result is None else 1.0)

    def on_predict(args, kwargs, result, wall, self_time):
        if result["cache"] == "hit":
            tracer.sample("service.core.predict_hit", "service.core", wall)
            return
        executor = simulate_wall.pop(result["key"], 0.0)
        tracer.discount("service.core.predict", executor)
        tracer.sample("service.core.queue_wait", "service.core", self_time - executor)

    def on_predict_batch(args, kwargs, result, wall, self_time):
        executor = max(shard_walls.pop(result["key"], [0.0]))
        tracer.discount("service.core.predict_batch", executor)

    return kernel_targets(tracer, simulate_hook=on_simulate, batch_hook=on_batch) + [
        Target(PredictionService, "predict", "service.core.predict", "service.core",
               on_done=on_predict),
        Target(PredictionService, "predict_batch", "service.core.predict_batch",
               "service.core", on_done=on_predict_batch),
        Target(core, "prediction_key", "service.core.key", "service.core", on_done=on_key),
        Target(core, "batch_request_key", "service.core.key", "service.core", on_done=on_key),
        Target(core, "plan_shards", "service.workers.plan", "service.workers", on_done=on_plan),
        Target(core, "merge_shard_results", "service.workers.merge", "service.workers"),
        Target(MemoisingStore, "get", "experiments.store.memo_get", "experiments.store",
               on_done=on_memo_get),
        Target(MemoisingStore, "put", "experiments.store.memo_put", "experiments.store"),
    ]


def serve(conn) -> None:
    """Server process entry: run the service until told to stop.

    Control messages on ``conn``: ``trace_on`` / ``trace_off`` install and
    restore the wrappers, ``snapshot`` returns (and clears) what they
    recorded, ``stop`` shuts down.
    """
    ensure_repro_importable()
    from repro.service.core import PredictionService, ServiceConfig
    from repro.service.http import start_service

    tracer = Tracer()

    async def main() -> None:
        service = PredictionService(ServiceConfig(workers=2, cache_capacity=4096))
        server = await start_service(service, host="127.0.0.1", port=0)
        loop = asyncio.get_running_loop()
        stopped = loop.create_future()

        def control() -> None:
            try:
                while True:
                    message = conn.recv()
                    if message == "trace_on":
                        tracer.install(_server_targets(tracer))
                        conn.send("ok")
                    elif message == "trace_off":
                        tracer.restore()
                        conn.send("ok")
                    elif message == "snapshot":
                        conn.send(tracer.snapshot())
                    else:
                        break
            except EOFError:
                pass
            loop.call_soon_threadsafe(stopped.set_result, None)

        thread = threading.Thread(target=control, daemon=True)
        thread.start()
        conn.send(("ready", server.sockets[0].getsockname()[1]))
        try:
            await stopped
        finally:
            server.close()
            await server.wait_closed()
            service.close()
        thread.join(timeout=5)

    asyncio.run(main())


#: Server child entry point: ``python3 -c SERVER_MAIN <root> <fd>``.
SERVER_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from perfbench.predict_http import serve; "
               "from multiprocessing.connection import Connection; "
               "serve(Connection(int(sys.argv[2])))")


class ServerProcess:
    """A server child process and its control pipe.

    A plain child process on one end of a socket pair, not a
    ``multiprocessing`` process: spawning one of those starts a resource
    tracker process that outlives the benchmark.  If the benchmark dies,
    the server reads end-of-file on its pipe and stops by itself.
    """

    def __init__(self) -> None:
        parent, child = socket.socketpair()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", SERVER_MAIN, ROOT, str(child.fileno())],
                pass_fds=(child.fileno(),), stdin=subprocess.DEVNULL,
                stdout=sys.stderr.fileno())
        except BaseException:
            parent.close()
            raise
        finally:
            child.close()
        self.conn = Pipe(parent.detach())
        if not self.conn.poll(60):
            self.stop()
            raise RuntimeError("server did not start within 60 s")
        _, self.port = self.conn.recv()

    def call(self, message: str) -> Any:
        self.conn.send(message)
        return self.conn.recv()

    def stop(self) -> None:
        try:
            self.conn.send("stop")
        except OSError:
            pass
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.conn.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection sending pre-encoded requests."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, raw: bytes) -> Tuple[int, bytes]:
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        start = head.index(b"Content-Length: ") + 16
        length = int(head[start:head.index(b"\r\n", start)])
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass
class Sent:
    """What the client saw of one open-loop request."""

    index: int
    due: float
    dispatched: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    status: int = 0
    body: bytes = b""
    ok: bool = False


async def _warm(conns: List[Connection], warm_raw: List[bytes], check: Check) -> List[bytes]:
    """Compute the warm set through the server; return each point's hit body."""
    queue = list(range(len(warm_raw)))

    async def lane(conn: Connection) -> None:
        while queue:
            index = queue.pop()
            status, body = await conn.send(warm_raw[index])
            check.count(status == 200 and json.loads(body)["cache"] == "miss",
                        f"warm point {index}: {status}")

    await asyncio.gather(*(lane(conn) for conn in conns))
    bodies = []
    for index, raw in enumerate(warm_raw):
        status, body = await conns[0].send(raw)
        check.count(status == 200 and json.loads(body)["cache"] == "hit",
                    f"warm hit {index}: {status}")
        bodies.append(body)
    return bodies


async def _open_loop(conns, schedule: Schedule, raws: List[bytes], hit_bodies,
                     indices: List[int], origin: float) -> List[Sent]:
    """Send ``indices`` of the stream at their offsets, counted from ``origin``."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    records: List[Sent] = []

    async def lane(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            item.sent = time.perf_counter()
            item.status, body = await conn.send(raws[item.index])
            item.received = time.perf_counter()
            target = schedule.targets[item.index]
            if target >= 0:
                item.ok = item.status == 200 and body == hit_bodies[target]
            else:
                item.body = body

    lanes = [loop.create_task(lane(conn)) for conn in conns]
    start = time.perf_counter() + 0.01 - origin
    for index in indices:
        due = start + schedule.offsets[index]
        # The loop's timers fire up to a millisecond late; sleep to just
        # before the due time, then yield until it arrives, so lateness
        # measures the system rather than the timer.
        delay = due - time.perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        item = Sent(index=index, due=due, dispatched=time.perf_counter())
        records.append(item)
        queue.put_nowait(item)
    for _ in lanes:
        queue.put_nowait(None)
    await asyncio.gather(*lanes)
    return records


async def _closed_loop(conns, schedule: Schedule, hit_raws, hit_bodies, seconds: float):
    """Back-to-back warm hits on every connection; per-window completions."""
    stop_at = time.perf_counter() + seconds
    completions: List[float] = []
    rtts: List[float] = []
    failures = [0]

    async def lane(conn: Connection, offset: int) -> None:
        picks = schedule.closed_hits
        position = offset
        while True:
            target = picks[position % len(picks)]
            position += 1
            sent = time.perf_counter()
            if sent >= stop_at:
                return
            status, body = await conn.send(hit_raws[target])
            done = time.perf_counter()
            completions.append(done)
            rtts.append(done - sent)
            if status != 200 or body != hit_bodies[target]:
                failures[0] += 1

    began = time.perf_counter()
    await asyncio.gather(*(lane(conn, k * 997) for k, conn in enumerate(conns)))
    return began, completions, rtts, failures[0]


def _window_rates(began: float, completions: List[float], window: float = WINDOW_S) -> List[float]:
    """Completions per second in each whole window of one closed-loop segment."""
    windows = int((max(completions, default=began) - began) / window)
    counts = [0] * windows
    for moment in completions:
        slot = int((moment - began) / window)
        if slot < windows:
            counts[slot] += 1
    return [count / window for count in counts]


def _verify(records: List[Sent], schedule: Schedule, check: Check) -> None:
    """Status, cache class and byte-equality checks, after the timed phase."""
    from repro import api
    from repro.experiments.store import canonical_json

    recomputed = 0
    for item in records:
        kind = schedule.classes[item.index]
        if kind == "hit":
            check.count(item.ok, f"hit {item.index}: status {item.status} or body differs")
            continue
        if not check.count(item.status == 200, f"{kind} {item.index}: status {item.status}"):
            continue
        payload = json.loads(item.body)
        check.count(payload.get("cache") == "miss", f"{kind} {item.index}: cache {payload.get('cache')}")
        request = schedule.payloads[item.index]
        if kind == "batch":
            batch = api.simulate_batch(api.BatchConfig.from_dict(request))
            expected = [result.to_dict() for result in batch.results]
            check.count(canonical_json(expected) == canonical_json(payload["results"]),
                        f"batch {item.index}: results differ from in-process simulate_batch")
        elif recomputed < MISS_RECOMPUTES:
            recomputed += 1
            expected = api.simulate(api.SimConfig.from_dict(request)).to_dict()
            check.count(canonical_json(expected) == canonical_json(payload["result"]),
                        f"miss {item.index}: result differs from in-process simulate")


def _latencies(records: List[Sent], schedule: Schedule, kind: str) -> List[float]:
    return [1000.0 * (item.received - item.due) for item in records
            if schedule.classes[item.index] == kind]


@dataclass
class PassResult:
    records: List[Sent] = field(default_factory=list)
    windows: List[float] = field(default_factory=list)
    closed_count: int = 0
    closed_rtts: List[float] = field(default_factory=list)
    closed_wall: float = 0.0
    open_snapshots: List[Dict[str, Any]] = field(default_factory=list)
    closed_snapshots: List[Dict[str, Any]] = field(default_factory=list)
    speed: Speed = field(default_factory=Speed)


async def _pass(server: ServerProcess, conns, schedule: Schedule, warm_raw, hit_bodies,
                seconds: float, check: Check, traced: bool) -> PassResult:
    """Alternate open- and closed-loop segments, ``CYCLES`` of each.

    Interleaving spreads both phases over the whole run, so a burst of
    load from elsewhere on the machine does not land on one phase only.
    """
    raws = [_raw("/predict/batch" if kind == "batch" else "/predict", payload)
            for kind, payload in zip(schedule.classes, schedule.payloads)]
    open_length = seconds * OPEN_SHARE / CYCLES
    closed_length = seconds * (1.0 - OPEN_SHARE) / CYCLES
    result = PassResult()
    failures = 0
    if traced:
        server.call("snapshot")
    for cycle in range(CYCLES):
        result.speed.sample()
        origin = cycle * open_length
        indices = [index for index, offset in enumerate(schedule.offsets)
                   if origin <= offset < origin + open_length
                   or (cycle == CYCLES - 1 and offset >= origin)]
        result.records += await _open_loop(conns, schedule, raws, hit_bodies, indices, origin)
        if traced:
            result.open_snapshots.append(server.call("snapshot"))
        result.speed.sample()
        began, completions, rtts, failed = await _closed_loop(
            conns, schedule, warm_raw, hit_bodies, closed_length)
        result.closed_wall += time.perf_counter() - began
        if traced:
            result.closed_snapshots.append(server.call("snapshot"))
        result.windows += _window_rates(began, completions, min(WINDOW_S, closed_length / 2))
        result.closed_count += len(completions)
        result.closed_rtts += rtts
        failures += failed
    check.attempted += result.closed_count
    check.failed += failures
    if failures:
        check.problems.append(f"{failures} closed-loop hits failed")
    _verify(result.records, schedule, check)
    return result


def _end_to_end(result: PassResult, schedule: Schedule) -> Dict[str, float]:
    """The pass's named metrics, scaled by its reference-kernel speed."""
    factor = result.speed.factor
    hits = _latencies(result.records, schedule, "hit")
    misses = _latencies(result.records, schedule, "miss")
    batches = _latencies(result.records, schedule, "batch")
    return {
        "hit_p50_ms": factor * percentile(hits, 50),
        "hit_p99_ms": factor * percentile(hits, 99),
        "miss_p50_ms": factor * percentile(misses, 50),
        "miss_p90_ms": factor * percentile(misses, 90),
        "batch_p50_ms": factor * percentile(batches, 50),
        "hit_capacity_rps": median(result.windows) / factor,
    }


async def _client(seed: int, seconds: float, trace: bool, tiny: bool, report: Report) -> None:
    warm = warm_set(seed, tiny)
    warm_raw = [_raw("/predict", point) for point in warm]
    open_seconds = seconds * OPEN_SHARE
    schedule = make_schedule(seed, open_seconds, warm)
    setups: List[float] = []
    speed = Speed()
    server: Optional[ServerProcess] = None
    conns: List[Connection] = []
    try:
        for attempt in range(SETUPS):
            speed.sample()
            begin = time.perf_counter()
            server = ServerProcess()
            conns = [await Connection.open(server.port) for _ in range(CONNECTIONS)]
            hit_bodies = await _warm(conns, warm_raw, report.check)
            setups.append(time.perf_counter() - begin)
            if attempt < SETUPS - 1:
                for conn in conns:
                    await conn.close()
                server.stop()
                server = None

        result = await _pass(server, conns, schedule, warm_raw, hit_bodies, seconds,
                             report.check, traced=False)
        e2e = _end_to_end(result, schedule)
        for name, value in e2e.items():
            report.put("headline", name, value, "1/s" if name.endswith("rps") else "ms")
        report.note(f"open loop: {len(result.records)} requests "
                    + ", ".join(f"{k} {schedule.classes.count(k)}" for k, _ in MIX)
                    + f"; closed loop: {result.closed_count} hits in {result.closed_wall:.2f} s")
        report.note(speed_note(result.speed))
        report.put("metrics", "light_op_ms", e2e["hit_p50_ms"], "ms")
        report.put("metrics", "heavy_op_ms", e2e["miss_p50_ms"], "ms")
        report.put("metrics", "bulk_per_s", e2e["hit_capacity_rps"], "1/s")
        report.put("metrics", "setup_s", scaled(setups, speed.samples), "s")
        if trace:
            await _traced(report, server, conns, seed, open_seconds, warm, warm_raw,
                          hit_bodies, seconds, e2e)
    finally:
        for conn in conns:
            await conn.close()
        if server is not None:
            server.stop()


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Report:
    report = Report(NAME)
    # Client and server share one CPU (the server inherits the mask).  On
    # a shared VM a request/response hand-off between two CPUs waits for
    # the hypervisor to wake the other one, which swung the closed-loop
    # capacity threefold between runs; on one CPU the hand-off is local.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        asyncio.run(_client(seed, seconds, trace, tiny, report))
    finally:
        os.sched_setaffinity(0, allowed)
    report.note(f"client and server pinned to CPU {min(allowed)}")
    report.put("metrics", "peak_rss_mb", peak_rss_mb(), "MB")
    return report


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
async def _traced(report, server, conns, seed, open_seconds, warm, warm_raw, hit_bodies,
                  seconds, untraced) -> None:
    schedule = make_schedule(seed, open_seconds, warm, label="traced")
    server.call("trace_on")
    try:
        result = await _pass(server, conns, schedule, warm_raw, hit_bodies, seconds,
                             report.check, traced=True)
    finally:
        server.call("trace_off")
    traced = _end_to_end(result, schedule)
    open_snapshot = merge_snapshots(*result.open_snapshots)
    closed_snapshot = merge_snapshots(*result.closed_snapshots)
    both = merge_snapshots(open_snapshot, closed_snapshot)

    hits = [item for item in result.records if schedule.classes[item.index] == "hit"]
    rtt_hits = [item.received - item.sent for item in hits] + result.closed_rtts
    predict_hit = span_samples(both, "service.core.predict_hit")
    layer_times = {
        "service.core.key_us.p50": (1e6 * percentile(span_samples(both, "service.core.key"), 50), "us"),
        "service.http.overhead_us.p50": (
            1e6 * (percentile(rtt_hits, 50) - percentile(predict_hit, 50)), "us"),
        "service.core.predict_hit_us.p50": (1e6 * percentile(predict_hit, 50), "us"),
        "experiments.store.memo_get_us.p50": (
            1e6 * percentile(span_samples(both, "experiments.store.memo_get"), 50), "us"),
        "service.core.queue_wait_ms.p50": (
            1000.0 * percentile(span_samples(both, "service.core.queue_wait"), 50), "ms"),
        "service.workers.merge_ms": (
            1000.0 * percentile(span_samples(both, "service.workers.merge"), 50), "ms"),
        "loadgen.late_ms.p99": (
            1000.0 * percentile([item.dispatched - item.due for item in result.records], 99), "ms"),
    }
    kernels = kernel_metrics(both)
    layer_times["api.simulate.ms.p50"] = (kernels["api.simulate.ms.p50"], "ms")
    layer_times["api.simulate_batch.ms.p50"] = (kernels["api.simulate_batch.ms.p50"], "ms")
    for name, (value, unit) in layer_times.items():
        report.put("layer_times", name, value, unit)
    for name in ("montecarlo.scalar.events_per_s", "montecarlo.vectorized.rows_per_s",
                 "montecarlo.vectorized_analytic.rows_per_s"):
        report.put("layers", name, kernels[name], "1/s")
    report.put("layers", "api.simulate_batch.facade_share",
               kernels["api.simulate_batch.facade_share"], "ratio")
    report.put("layers", "experiments.store.memo_hit_ratio",
               ratio(both["counters"].get("memo.hits", 0.0), both["counters"].get("memo.lookups", 0.0)),
               "ratio")

    # Open loop: each request's latency from its due time is generator and
    # connection wait (loadgen) plus the round trip; the round trip is the
    # server's own spans plus HTTP (the rest of it).
    open_rtt = sum(item.received - item.sent for item in result.records)
    open_layers = layer_self_times(open_snapshot)
    open_server = _server_wall(open_snapshot)
    open_layers["loadgen"] = sum(item.sent - item.due for item in result.records)
    open_layers["service.http"] = open_rtt - open_server
    open_base = sum(item.received - item.due for item in result.records)
    # Closed loop: each connection is busy for the whole phase; what the
    # round trips do not cover is the client's own time between requests.
    closed_layers = layer_self_times(closed_snapshot)
    closed_layers["service.http"] = sum(result.closed_rtts) - _server_wall(closed_snapshot)
    account(report, [
        Phase("open", open_base, open_layers),
        Phase("closed", CONNECTIONS * result.closed_wall, closed_layers,
              "base is connections x phase wall"),
    ])
    names = ("hit_p50_ms", "miss_p50_ms", "hit_capacity_rps")
    overhead(report, {n: untraced[n] for n in names}, {n: traced[n] for n in names})


def _server_wall(snapshot: Dict[str, Any]) -> float:
    return span_wall(snapshot, "service.core.predict", "service.core.predict_batch")
