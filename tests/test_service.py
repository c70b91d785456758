"""End-to-end tests for the prediction service (``repro.service``).

Covers the service core directly (single-flight coalescing and a
cancelled coalesced requester, cache hits, stats accuracy, the
batch-vs-``simulate_batch`` differential) and the HTTP front-end over a
real loopback socket (schema round-trip, malformed request handling,
routing, the header cap, the request deadline, HTTP/1.0 connections and
warm hits answered from stored bytes).  No pytest-asyncio:
each test drives its own event loop with ``asyncio.run``.
"""

import asyncio
import hashlib
import json
import socket
import threading
import time

import pytest

from repro import api, telemetry
from repro.service import core as service_core
from repro.service import http
from repro.experiments.store import _json_safe
from repro.service import (
    BadRequest,
    PredictionService,
    SCHEMA_VERSION,
    ServiceConfig,
    plan_shards,
    start_service,
)
from tests.test_cache_keys import GOLDEN_HIT_BODY, GOLDEN_HIT_REQUEST

NUM_EVENTS = 2000

PREDICT_PAYLOAD = {
    "formula": {"kind": "pftk-simplified", "rtt": 1.0},
    "loss_event_rate": 0.05,
    "coefficient_of_variation": 0.999,
    "history_length": 8,
    "num_events": NUM_EVENTS,
    "seed": 7,
}

BATCH_PAYLOAD = {
    "formulas": ["sqrt", "pftk-simplified"],
    "history_lengths": [2, 8],
    "loss_event_rates": [0.05, 0.2],
    "coefficients_of_variation": [0.999],
    "num_events": NUM_EVENTS,
    "seed": 9,
    "share_noise": False,
}

#: A correlated loss process: the analytic method must refuse it.
GILBERT = {"kind": "gilbert", "good_to_bad": 0.05, "bad_to_good": 0.4}


def _counter(name):
    """A process-wide counter (the autouse fixture resets them per test)."""
    return telemetry.get_registry().counter(name)


def _service(**overrides):
    options = {"cache_capacity": 32, "workers": 2}
    options.update(overrides)
    return PredictionService(ServiceConfig(**options))


def run(coroutine_function):
    """Run one async test body to completion on a fresh loop."""
    return asyncio.run(coroutine_function())


# ----------------------------------------------------------------------
# Service core
# ----------------------------------------------------------------------
class TestPredict:
    def test_response_schema_and_value_round_trip(self):
        async def body():
            service = _service()
            try:
                response = await service.predict(PREDICT_PAYLOAD)
            finally:
                service.close()
            assert response["schema_version"] == SCHEMA_VERSION
            assert response["cache"] == "miss"
            assert isinstance(response["key"], str) and len(response["key"]) == 64
            # The served result is exactly the direct kernel result, and
            # survives a strict-JSON round trip unchanged.
            config = api.SimConfig.from_dict(PREDICT_PAYLOAD)
            direct = _json_safe(api.simulate(config).to_dict())
            assert response["result"] == direct
            replay = json.loads(json.dumps(response, allow_nan=False))
            assert replay == response

        run(body)

    def test_second_identical_request_hits_the_cache(self):
        async def body():
            service = _service()
            try:
                first = await service.predict(PREDICT_PAYLOAD)
                second = await service.predict(dict(PREDICT_PAYLOAD))
            finally:
                service.close()
            assert first["cache"] == "miss"
            assert second["cache"] == "hit"
            assert second["key"] == first["key"]
            assert second["result"] == first["result"]
            assert _counter("service.computes_predict") == 1

        run(body)

    def test_spelling_variants_share_one_cache_entry(self):
        async def body():
            service = _service()
            try:
                first = await service.predict(PREDICT_PAYLOAD)
                # Same point, spelled with a bare kind string (registry
                # defaults fill in rtt=1.0).
                variant = dict(PREDICT_PAYLOAD, formula="pftk-simplified")
                second = await service.predict(variant)
            finally:
                service.close()
            assert second["cache"] == "hit"
            assert second["key"] == first["key"]

        run(body)

    def test_single_flight_coalesces_concurrent_identical_requests(self):
        async def body():
            service = _service()
            try:
                responses = await asyncio.gather(
                    *(service.predict(PREDICT_PAYLOAD) for _ in range(8))
                )
            finally:
                service.close()
            # The kernel ran exactly once for all eight clients.
            assert _counter("service.computes_predict") == 1
            assert _counter("service.coalesced") == 7
            labels = sorted(response["cache"] for response in responses)
            assert labels == ["coalesced"] * 7 + ["miss"]
            first = responses[0]["result"]
            assert all(r["result"] == first for r in responses)

        run(body)

    def test_cancelled_requester_does_not_cancel_the_shared_compute(
            self, monkeypatch):
        release = threading.Event()
        simulate = api.simulate

        def gated_simulate(config):
            release.wait(timeout=30)
            return simulate(config)

        monkeypatch.setattr(api, "simulate", gated_simulate)

        async def body():
            service = _service()
            try:
                first = asyncio.create_task(service.predict(PREDICT_PAYLOAD))
                await asyncio.sleep(0)
                waiters = [
                    asyncio.create_task(service.predict(PREDICT_PAYLOAD))
                    for _ in range(3)
                ]
                await asyncio.sleep(0)
                assert _counter("service.coalesced") == 3
                # The first requester goes away (a client timeout) while
                # the compute is still blocked.
                first.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await first
                release.set()
                responses = await asyncio.gather(*waiters)
                again = await service.predict(PREDICT_PAYLOAD)
            finally:
                release.set()
                service.close()
            config = api.SimConfig.from_dict(PREDICT_PAYLOAD)
            direct = _json_safe(simulate(config).to_dict())
            assert [r["cache"] for r in responses] == ["coalesced"] * 3
            assert all(r["result"] == direct for r in responses)
            assert _counter("service.computes_predict") == 1
            assert again["cache"] == "hit"
            assert again["result"] == direct

        run(body)

    def test_distinct_requests_are_not_coalesced(self):
        async def body():
            service = _service()
            payloads = [
                dict(PREDICT_PAYLOAD, seed=seed) for seed in (1, 2, 3)
            ]
            try:
                responses = await asyncio.gather(
                    *(service.predict(p) for p in payloads)
                )
            finally:
                service.close()
            assert _counter("service.computes_predict") == 3
            assert {r["key"] for r in responses} == {
                r["key"] for r in responses
            } and len({r["key"] for r in responses}) == 3

        run(body)

    def test_malformed_requests_raise_bad_request(self):
        async def body():
            service = _service()
            try:
                with pytest.raises(BadRequest):
                    await service.predict([1, 2, 3])
                with pytest.raises(BadRequest):
                    await service.predict(
                        dict(PREDICT_PAYLOAD, formula="no-such-formula")
                    )
                with pytest.raises(BadRequest):
                    await service.predict(
                        dict(PREDICT_PAYLOAD, num_events=-5)
                    )
                for bad in (
                    {"seed": -3},
                    {"seed": 1.5},
                    {"num_events": 200.5},
                    {"method": "analytic", "loss_process": GILBERT,
                     "loss_event_rate": None,
                     "coefficient_of_variation": None},
                ):
                    with pytest.raises(BadRequest):
                        await service.predict(dict(PREDICT_PAYLOAD, **bad))
            finally:
                service.close()
            assert _counter("service.bad_requests") == 7
            assert _counter("service.computes_predict") == 0

        run(body)


class TestPredictBatch:
    def test_batch_matches_direct_simulate_batch_bit_for_bit(self):
        async def body():
            service = _service(workers=2)
            try:
                cold = await service.predict_batch(BATCH_PAYLOAD)
                warm = await service.predict_batch(dict(BATCH_PAYLOAD))
            finally:
                service.close()
            config = api.BatchConfig.from_dict(BATCH_PAYLOAD)
            assert len(plan_shards(config, 2)) == 2  # sharded path exercised
            direct = [
                _json_safe(result.to_dict())
                for result in api.simulate_batch(config).results
            ]
            assert cold["cache"] == "miss"
            assert cold["shards"] == 2
            assert cold["num_results"] == len(direct)
            assert cold["results"] == direct
            assert warm["cache"] == "hit"
            assert warm["results"] == direct

        run(body)

    def test_shared_noise_batch_is_never_sharded_and_still_matches(self):
        async def body():
            payload = dict(BATCH_PAYLOAD, share_noise=True)
            service = _service(workers=4)
            try:
                response = await service.predict_batch(payload)
            finally:
                service.close()
            config = api.BatchConfig.from_dict(payload)
            direct = [
                _json_safe(result.to_dict())
                for result in api.simulate_batch(config).results
            ]
            assert response["shards"] == 1
            assert response["results"] == direct

        run(body)

    def test_single_flight_coalesces_concurrent_identical_batches(self):
        async def body():
            service = _service()
            try:
                responses = await asyncio.gather(
                    *(service.predict_batch(BATCH_PAYLOAD) for _ in range(6))
                )
            finally:
                service.close()
            assert service.stats()["computes"]["batch"] == 1
            assert _counter("service.coalesced") == 5
            labels = sorted(response["cache"] for response in responses)
            assert labels == ["coalesced"] * 5 + ["miss"]
            first = responses[0]["results"]
            assert all(r["results"] == first for r in responses)

        run(body)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"loss_processes": [], "loss_event_rates": None,
             "coefficients_of_variation": None},
            {"loss_event_rates": []},
            {"history_lengths": [0]},
            {"loss_event_rates": [0.0]},
            {"coefficients_of_variation": [1.5]},
            {"seed": -3},
            {"method": "analytic", "loss_processes": [GILBERT],
             "loss_event_rates": None, "coefficients_of_variation": None},
            {"seed_axes": 5},
            {"seed_axes": "loss_event_rate"},
            {"seed_axes": ["bogus"]},
        ],
    )
    def test_malformed_batch_requests_raise_bad_request(self, overrides):
        async def body():
            service = _service()
            payload = dict(BATCH_PAYLOAD, **overrides)
            payload = {k: v for k, v in payload.items() if v is not None}
            try:
                with pytest.raises(BadRequest):
                    await service.predict_batch(payload)
            finally:
                service.close()
            assert _counter("service.bad_requests") == 1
            assert _counter("service.computes_batch") == 0

        run(body)

    def test_oversized_batch_is_rejected(self, monkeypatch):
        monkeypatch.setattr(service_core, "MAX_BATCH_ROWS", 3)

        async def body():
            service = _service()
            try:
                with pytest.raises(BadRequest, match="above the service"):
                    await service.predict_batch(BATCH_PAYLOAD)
            finally:
                service.close()
            assert _counter("service.bad_requests") == 1
            assert _counter("service.computes_batch") == 0

        run(body)


class TestStats:
    def test_counters_track_the_request_history_exactly(self):
        async def body():
            service = _service()
            try:
                await service.predict(PREDICT_PAYLOAD)  # miss
                await service.predict(PREDICT_PAYLOAD)  # hit
                await asyncio.gather(  # 1 miss + 2 coalesced
                    *(
                        service.predict(dict(PREDICT_PAYLOAD, seed=99))
                        for _ in range(3)
                    )
                )
                with pytest.raises(BadRequest):
                    await service.predict({"formula": "no-such-formula"})
                batch = await service.predict_batch(BATCH_PAYLOAD)
                stats = service.stats()
            finally:
                service.close()
            assert stats["schema_version"] == SCHEMA_VERSION
            assert stats["requests"] == {"predict": 6, "batch": 1, "bad": 1}
            assert stats["computes"] == {
                "predict": 2,
                "batch": 1,
                "shards": batch["shards"],
            }
            assert stats["coalesced"] == 2
            # Cache tier: every arrival probes the cache before the
            # in-flight map, so the 2 coalesced waiters also record
            # misses -- 2 predict + 2 coalesced + 1 batch = 5.
            assert stats["cache"]["hits"] == 1
            assert stats["cache"]["misses"] == 5
            assert stats["cache"]["memory_size"] == 3
            json.dumps(stats, allow_nan=False)  # JSON-safe end to end

        run(body)

    def test_persistent_store_survives_a_service_restart(self, tmp_path):
        store_path = str(tmp_path / "service.jsonl")

        async def first():
            service = _service(store_path=store_path)
            try:
                return await service.predict(PREDICT_PAYLOAD)
            finally:
                service.close()

        async def second():
            service = _service(store_path=store_path)
            try:
                return await service.predict(PREDICT_PAYLOAD), service.stats()
            finally:
                service.close()

        cold = run(first)
        assert _counter("service.computes_predict") == 1
        warm, stats = run(second)
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"  # promoted from the JSONL store
        assert warm["result"] == cold["result"]
        # Counts are per process: the second service computed nothing.
        assert _counter("service.computes_predict") == 1
        assert stats["computes"]["predict"] == 1
        assert stats["cache"]["store_hits"] == 1


# ----------------------------------------------------------------------
# HTTP front-end over a real loopback socket
# ----------------------------------------------------------------------
async def _http_request(host, port, method, path, body=b"", headers=()):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
        head.extend(headers)
        head.append(f"Content-Length: {len(body)}")
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(None, 2)[1])
    return status, json.loads(payload)


async def _post_json(host, port, path, payload):
    body = json.dumps(payload).encode("utf-8")
    return await _http_request(host, port, "POST", path, body=body)


class TestHttpFrontend:
    @staticmethod
    async def _with_server(body, **overrides):
        service = _service(**overrides)
        server = await start_service(service, port=0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            await body(service, host, port)
        finally:
            server.close()
            await server.wait_closed()
            service.close()

    def test_healthz_predict_and_stats_round_trip(self):
        async def body(service, host, port):
            status, payload = await _http_request(host, port, "GET", "/healthz")
            assert status == 200
            assert payload == {
                "status": "ok",
                "schema_version": SCHEMA_VERSION,
            }

            status, first = await _post_json(
                host, port, "/predict", PREDICT_PAYLOAD
            )
            assert status == 200 and first["cache"] == "miss"
            status, second = await _post_json(
                host, port, "/predict", PREDICT_PAYLOAD
            )
            assert status == 200 and second["cache"] == "hit"
            assert second["result"] == first["result"]

            status, stats = await _http_request(host, port, "GET", "/stats")
            assert status == 200
            assert stats["requests"]["predict"] == 2
            assert stats["computes"]["predict"] == 1
            assert stats["cache"]["hits"] == 1

        run(lambda: self._with_server(body))

    def test_batch_over_http_matches_direct_kernels(self):
        async def body(service, host, port):
            status, response = await _post_json(
                host, port, "/predict/batch", BATCH_PAYLOAD
            )
            assert status == 200
            config = api.BatchConfig.from_dict(BATCH_PAYLOAD)
            direct = [
                _json_safe(result.to_dict())
                for result in api.simulate_batch(config).results
            ]
            assert response["results"] == direct

        run(lambda: self._with_server(body))

    def test_malformed_requests_are_400s(self):
        async def body(service, host, port):
            # Invalid JSON body.
            status, payload = await _http_request(
                host, port, "POST", "/predict", body=b"{not json"
            )
            assert status == 400 and "not valid JSON" in payload["error"]
            # Valid JSON, wrong shape.
            status, payload = await _post_json(
                host, port, "/predict", [1, 2, 3]
            )
            assert status == 400 and "JSON object" in payload["error"]
            # Valid shape, unknown component kind.
            status, payload = await _post_json(
                host,
                port,
                "/predict",
                dict(PREDICT_PAYLOAD, formula="no-such-formula"),
            )
            assert status == 400 and "error" in payload
            # Valid shape, invalid seed or grid axis.
            status, payload = await _post_json(
                host, port, "/predict", dict(PREDICT_PAYLOAD, seed=-3)
            )
            assert status == 400 and "seed" in payload["error"]
            status, payload = await _post_json(
                host,
                port,
                "/predict/batch",
                dict(BATCH_PAYLOAD, loss_event_rates=[]),
            )
            assert status == 400 and "error" in payload
            status, payload = await _post_json(
                host,
                port,
                "/predict/batch",
                dict(BATCH_PAYLOAD, history_lengths=[0]),
            )
            assert status == 400 and "error" in payload
            # The analytic method on a correlated loss process.
            status, payload = await _post_json(
                host,
                port,
                "/predict",
                dict(
                    PREDICT_PAYLOAD,
                    method="analytic",
                    loss_process=GILBERT,
                    loss_event_rate=None,
                    coefficient_of_variation=None,
                ),
            )
            assert status == 400 and "is_iid" in payload["error"]
            assert _counter("service.computes_predict") == 0
            assert _counter("service.computes_batch") == 0

        run(lambda: self._with_server(body))

    def test_analytic_request_below_the_sample_floor_is_a_400(self):
        async def body(service, host, port):
            status, payload = await _post_json(
                host,
                port,
                "/predict",
                dict(PREDICT_PAYLOAD, method="analytic", num_events=50),
            )
            assert status == 400 and "at least 100" in payload["error"]
            assert _counter("service.computes_predict") == 0

        run(lambda: self._with_server(body))

    def test_unknown_routes_and_methods(self):
        async def body(service, host, port):
            status, payload = await _http_request(host, port, "GET", "/nope")
            assert status == 404
            status, payload = await _http_request(host, port, "POST", "/stats")
            assert status == 405
            status, payload = await _http_request(
                host, port, "GET", "/predict"
            )
            assert status == 405

        run(lambda: self._with_server(body))

    def test_keep_alive_serves_sequential_requests_on_one_connection(self):
        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                payload = json.dumps(PREDICT_PAYLOAD).encode()
                request = (
                    f"POST /predict HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                ).encode() + payload
                caches = []
                for _ in range(2):
                    writer.write(request)
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    response = json.loads(await reader.readexactly(length))
                    caches.append(response["cache"])
            finally:
                writer.close()
                await writer.wait_closed()
            assert caches == ["miss", "hit"]

        run(lambda: self._with_server(body))

    def test_header_count_is_capped(self):
        async def body(service, host, port):
            # _http_request sends Host, Content-Length and Connection.
            def padding(total):
                return [f"X-Pad-{i}: {i}" for i in range(total - 3)]

            status, payload = await _http_request(
                host, port, "GET", "/healthz",
                headers=padding(http.MAX_HEADERS),
            )
            assert status == 200
            status, payload = await _http_request(
                host, port, "GET", "/healthz",
                headers=padding(http.MAX_HEADERS + 1),
            )
            assert status == 400 and "headers" in payload["error"]

        run(lambda: self._with_server(body))

    def test_shutdown_closes_a_connection_still_sending_a_response(
        self, monkeypatch
    ):
        # Shutdown begins while a large keep-alive response is still
        # being written to a slow client: once the client has read it,
        # the connection closes, without waiting out the deadline.
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", 30.0)
        size = 8 * 1024 * 1024

        class LargeStats:
            def stats(self):
                return {"blob": "x" * size}

        async def body():
            bound = asyncio.get_running_loop().create_future()
            server = asyncio.create_task(http.serve_forever(
                LargeStats(), port=0, ready=bound.set_result
            ))
            host, port = await bound
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((host, port))
            reader, writer = await asyncio.open_connection(sock=sock)
            try:
                writer.write(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                await asyncio.sleep(0.3)
                server.cancel()
                started = time.monotonic()
                raw = await asyncio.wait_for(reader.read(), timeout=10.0)
                elapsed = time.monotonic() - started
                with pytest.raises(asyncio.CancelledError):
                    await server
            finally:
                writer.close()
                await writer.wait_closed()
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert len(json.loads(payload)["blob"]) == size
            assert elapsed < 5.0

        run(body)

    def test_shutdown_cancels_an_overdue_handler_quietly(self, monkeypatch):
        # A compute that outlives the shutdown wait is aborted: no
        # response, and on Python 3.11 no "Exception in callback" report
        # of the handler's CancelledError.
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", 0.3)

        class SlowService:
            def stored_hit(self, body):
                return None

            async def predict(self, payload):
                await asyncio.sleep(30.0)

        async def body():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(
                lambda _loop, context: reported.append(context)
            )
            bound = loop.create_future()
            server = asyncio.create_task(http.serve_forever(
                SlowService(), port=0, ready=bound.set_result
            ))
            host, port = await bound
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )
                await writer.drain()
                await asyncio.sleep(0.2)
                server.cancel()
                started = time.monotonic()
                with pytest.raises(asyncio.CancelledError):
                    await server
                elapsed = time.monotonic() - started
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()
                await writer.wait_closed()
            for _ in range(3):
                await asyncio.sleep(0)
            assert raw == b""
            assert 0.3 <= elapsed < 5.0
            assert reported == []

        run(body)

    def test_stalled_request_is_closed_at_the_deadline(self, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", 0.2)

        async def body(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Half a request line, then nothing.
                writer.write(b"POST /predi")
                await writer.drain()
                started = time.monotonic()
                closed = await asyncio.wait_for(reader.read(), timeout=2.0)
                elapsed = time.monotonic() - started
            finally:
                writer.close()
                await writer.wait_closed()
            assert closed == b""
            assert elapsed < 2.0

        run(lambda: self._with_server(body))


# ----------------------------------------------------------------------
# HTTP/1.0 connections and warm hits answered from stored bytes
# ----------------------------------------------------------------------
def _request(method, path, body=b"", version="HTTP/1.1", headers=()):
    head = [f"{method} {path} {version}", *headers]
    if body:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


async def _read_response(reader):
    """One response on an open connection: (status, head, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    return int(head.split()[1]), head, await reader.readexactly(length)


async def _exchange(host, port, request):
    """Send one request on a new connection and read to end-of-file;
    a connection the server keeps open fails the test after 2 s."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=2.0)
    finally:
        writer.close()
        await writer.wait_closed()
    end = raw.index(b"\r\n\r\n") + 4
    return int(raw.split()[1]), raw[:end], raw[end:]


def _post(body, version="HTTP/1.1", close=True):
    headers = ("Connection: close",) if close else ()
    return _request("POST", "/predict", body, version, headers)


def _counting_keys(monkeypatch):
    """Count prediction_key calls: a hit from stored bytes makes none."""
    calls = []
    key = service_core.prediction_key

    def counted(config):
        calls.append(config)
        return key(config)

    monkeypatch.setattr(service_core, "prediction_key", counted)
    return calls


#: The golden point of tests/test_cache_keys.py, respelled: keys
#: reordered and the formula's rtt left to its default.
RESPELLED_HIT_REQUEST = {
    "seed": 7,
    "num_events": 1000,
    "history_length": 8,
    "coefficient_of_variation": 0.999,
    "loss_event_rate": 0.05,
    "formula": {"kind": "pftk-simplified"},
}

#: A history at cache capacity 2: a miss, repeated hits, a respelled
#: body, a refused body sent twice, evictions, a known body whose key was
#: evicted, and a batch.  Each step's expected (status, cache, SHA-256
#: of the response body), and /stats after the history less its
#: ``uptime_s``, were recorded at commit f734c95, before hits were
#: answered from stored bytes.
STORED_HISTORY = [
    ("/predict", GOLDEN_HIT_REQUEST, 200, "miss",
     "ea8c8e30fef878c870751a7ddac1d6b70704041f1006a2dfc7ced3ca17e50213"),
    ("/predict", GOLDEN_HIT_REQUEST, 200, "hit",
     "1906467e9ff39fab013aef1401755a5baf7f150e7518cfff3d0fc5c29bb77e6b"),
    ("/predict", GOLDEN_HIT_REQUEST, 200, "hit",
     "1906467e9ff39fab013aef1401755a5baf7f150e7518cfff3d0fc5c29bb77e6b"),
    ("/predict", RESPELLED_HIT_REQUEST, 200, "hit",
     "1906467e9ff39fab013aef1401755a5baf7f150e7518cfff3d0fc5c29bb77e6b"),
    ("/predict", dict(GOLDEN_HIT_REQUEST, seed=-3), 400, None,
     "70e53b71d9071b5334c13840b341ca393ae155c8b55c50f63af6db8a718818ba"),
    ("/predict", dict(GOLDEN_HIT_REQUEST, seed=-3), 400, None,
     "70e53b71d9071b5334c13840b341ca393ae155c8b55c50f63af6db8a718818ba"),
    ("/predict", dict(GOLDEN_HIT_REQUEST, seed=8), 200, "miss",
     "ed2eb60adcdfdac2376c33e1c9f9e475d7a33fecb74ec57ff41edbdef305f0ab"),
    ("/predict", dict(GOLDEN_HIT_REQUEST, seed=9), 200, "miss",
     "63e4e28ac485f30f294b6db51dd75d99e3d06ec0bc710869a1a155c4d64a7f98"),
    ("/predict", GOLDEN_HIT_REQUEST, 200, "miss",
     "ea8c8e30fef878c870751a7ddac1d6b70704041f1006a2dfc7ced3ca17e50213"),
    ("/predict", GOLDEN_HIT_REQUEST, 200, "hit",
     "1906467e9ff39fab013aef1401755a5baf7f150e7518cfff3d0fc5c29bb77e6b"),
    ("/predict/batch", dict(BATCH_PAYLOAD, num_events=1000), 200, "miss",
     "6ec4923f0b7cc7c6d293d5bc5f0300a4d2e0fc5d6cbb0ec901bd8500c68cffd0"),
    ("/predict/batch", dict(BATCH_PAYLOAD, num_events=1000), 200, "hit",
     "35a04eddf652c249d247137c7c9afb5e598495269af928e8ac330efc253abc07"),
    ("/predict", dict(GOLDEN_HIT_REQUEST, seed=9), 200, "miss",
     "63e4e28ac485f30f294b6db51dd75d99e3d06ec0bc710869a1a155c4d64a7f98"),
]

STORED_HISTORY_STATS = {
    "schema_version": 1,
    "workers": 2,
    "requests": {"predict": 11, "batch": 2, "bad": 2},
    "computes": {"predict": 5, "batch": 1, "shards": 2},
    "coalesced": 0,
    "cache": {
        "hits": 5, "store_hits": 0, "misses": 6, "puts": 6, "evictions": 4,
        "memory_size": 2, "capacity": 2, "persistent": False,
    },
}


class TestStoredHits:
    _with_server = staticmethod(TestHttpFrontend._with_server)

    def test_http10_request_without_keep_alive_is_closed(self):
        async def body(service, host, port):
            status, head, payload = await _exchange(
                host, port, _request("GET", "/healthz", version="HTTP/1.0")
            )
            assert status == 200 and b"Connection: close\r\n" in head
            assert json.loads(payload)["status"] == "ok"

        run(lambda: self._with_server(body))

    def test_http10_keep_alive_serves_sequential_requests(self):
        async def body(service, host, port):
            request = _request(
                "GET", "/healthz", version="HTTP/1.0",
                headers=("Connection: keep-alive",),
            )
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(2):
                    writer.write(request)
                    status, head, _ = await _read_response(reader)
                    assert status == 200
                    assert b"Connection: keep-alive\r\n" in head
            finally:
                writer.close()
                await writer.wait_closed()

        run(lambda: self._with_server(body))

    def test_request_history_matches_the_recorded_one(self):
        async def body(service, host, port):
            for path, payload, status, cache, digest in STORED_HISTORY:
                got, _, answer = await _exchange(
                    host, port,
                    _request("POST", path, json.dumps(payload).encode(),
                             headers=("Connection: close",)),
                )
                assert (got, json.loads(answer).get("cache")) == (
                    status, cache
                ), path
                assert hashlib.sha256(answer).hexdigest() == digest
            _, _, answer = await _exchange(
                host, port,
                _request("GET", "/stats", headers=("Connection: close",)),
            )
            stats = json.loads(answer)
            del stats["uptime_s"]
            assert stats == STORED_HISTORY_STATS

        run(lambda: self._with_server(body, cache_capacity=2))

    def test_refused_bodies_never_enter_the_map(self):
        async def body(service, host, port):
            for raw in (
                json.dumps(dict(PREDICT_PAYLOAD, seed=-3)).encode(),
                b"{not json",
            ):
                for _ in range(2):
                    status, _, _ = await _exchange(host, port, _post(raw))
                    assert status == 400
            assert len(service.stored_hits) == 0
            assert _counter("service.bad_requests") == 2

        run(lambda: self._with_server(body))

    def test_known_body_whose_key_was_evicted_computes_once(
        self, monkeypatch
    ):
        golden = json.dumps(GOLDEN_HIT_REQUEST).encode()

        async def body(service, host, port):
            keys = _counting_keys(monkeypatch)
            await _exchange(host, port, _post(golden))  # miss
            await _exchange(
                host, port,
                _request("POST", "/predict/batch",
                         json.dumps(dict(BATCH_PAYLOAD, num_events=1000))
                         .encode(), headers=("Connection: close",)),
            )
            await _exchange(  # evicts the golden key, not its body
                host, port, _post(json.dumps(PREDICT_PAYLOAD).encode())
            )
            assert len(service.stored_hits) == 2
            status, _, answer = await _exchange(host, port, _post(golden))
            assert json.loads(answer)["cache"] == "miss"
            assert _counter("service.computes_predict") == 3
            status, _, answer = await _exchange(host, port, _post(golden))
            assert answer == GOLDEN_HIT_BODY
            assert _counter("service.computes_predict") == 3
            assert len(keys) == 3  # the second golden hit made no key

            # Evict it again, and let a respelled body recompute the key:
            # the stored body answers from the recomputed value.
            await _exchange(
                host, port, _post(json.dumps(PREDICT_PAYLOAD).encode())
            )
            await _exchange(
                host, port,
                _post(json.dumps(dict(PREDICT_PAYLOAD, seed=8)).encode()),
            )
            await _exchange(
                host, port, _post(json.dumps(RESPELLED_HIT_REQUEST).encode())
            )
            computes = _counter("service.computes_predict")
            status, _, answer = await _exchange(host, port, _post(golden))
            assert answer == GOLDEN_HIT_BODY
            assert _counter("service.computes_predict") == computes

        run(lambda: self._with_server(body, cache_capacity=2))

    def test_stored_hit_refreshes_its_keys_recency(self):
        golden = json.dumps(GOLDEN_HIT_REQUEST).encode()

        async def body(service, host, port):
            for raw in (
                golden,  # miss
                json.dumps(PREDICT_PAYLOAD).encode(),  # miss
                golden,  # stored hit: now the most recent key
                json.dumps(dict(PREDICT_PAYLOAD, seed=8)).encode(),
            ):
                await _exchange(host, port, _post(raw))
            status, _, answer = await _exchange(host, port, _post(golden))
            assert answer == GOLDEN_HIT_BODY
            assert _counter("service.computes_predict") == 3
            assert _counter("memo.lru.eviction") == 1

        run(lambda: self._with_server(body, cache_capacity=2))

    def test_stored_body_answers_with_the_lrus_current_value(self):
        # A key recomputed or reloaded since its body was stored holds a
        # new value object; the stored bytes follow it.
        golden = json.dumps(GOLDEN_HIT_REQUEST).encode()

        async def body(service, host, port):
            _, _, answer = await _exchange(host, port, _post(golden))
            key = json.loads(answer)["key"]
            reloaded = dict(service.memo.memory.get(key), throughput=0.5)
            service.memo.memory.put(key, reloaded)
            _, _, answer = await _exchange(host, port, _post(golden))
            assert json.loads(answer)["result"] == reloaded
            assert service.stored_hits[hashlib.sha256(golden).digest()][1] is (
                reloaded
            )

        run(lambda: self._with_server(body))

    def test_map_never_holds_more_than_the_cache_capacity(self):
        golden = json.dumps(GOLDEN_HIT_REQUEST).encode()

        async def body(service, host, port):
            # Five spellings of one point: one key, five bodies.
            variants = [golden + b" " * spaces for spaces in range(5)]
            for raw in variants:
                status, _, _ = await _exchange(host, port, _post(raw))
                assert status == 200
                assert len(service.stored_hits) <= 2
            assert list(service.stored_hits) == [
                hashlib.sha256(raw).digest() for raw in variants[-2:]
            ]
            assert _counter("service.computes_predict") == 1

        run(lambda: self._with_server(body, cache_capacity=2))

    def test_padded_megabyte_body_hits_without_a_stored_copy(
        self, monkeypatch
    ):
        golden = json.dumps(GOLDEN_HIT_REQUEST).encode()
        padded = golden + b" " * (1 << 20)

        async def body(service, host, port):
            keys = _counting_keys(monkeypatch)
            await _exchange(host, port, _post(golden))  # miss
            for _ in range(2):  # a hit by key, then from stored bytes
                status, _, answer = await _exchange(host, port, _post(padded))
                assert status == 200 and answer == GOLDEN_HIT_BODY
            assert len(keys) == 2
            assert hashlib.sha256(padded).digest() in service.stored_hits
            for digest, (key, _, hit_body) in service.stored_hits.items():
                assert len(digest) == 32
                assert hit_body == GOLDEN_HIT_BODY

        run(lambda: self._with_server(body))

    def test_golden_hit_is_served_from_stored_bytes(self, monkeypatch):
        golden = json.dumps(GOLDEN_HIT_REQUEST).encode()

        async def body(service, host, port):
            keys = _counting_keys(monkeypatch)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                answers = []
                for _ in range(3):  # a miss, then two stored hits
                    writer.write(_post(golden, close=False))
                    status, head, answer = await _read_response(reader)
                    assert b"Connection: keep-alive\r\n" in head
                    answers.append(answer)
            finally:
                writer.close()
                await writer.wait_closed()
            assert json.loads(answers[0])["cache"] == "miss"
            assert answers[1:] == [GOLDEN_HIT_BODY] * 2
            for version in ("HTTP/1.1", "HTTP/1.0"):
                status, head, answer = await _exchange(
                    host, port, _post(golden, version, close=version == "HTTP/1.1")
                )
                assert head.startswith(b"HTTP/1.1 200 OK\r\n")
                assert b"Connection: close\r\n" in head
                assert f"Content-Length: {len(answer)}".encode() in head
                assert answer == GOLDEN_HIT_BODY
            assert len(keys) == 1
            assert _counter("service.requests_predict") == 5
            assert _counter("memo.hit") == 4

        run(lambda: self._with_server(body))
