"""End-to-end tests for the prediction service (``repro.service``).

Covers the service core directly (single-flight coalescing and a
cancelled coalesced requester, cache hits, stats accuracy, the
batch-vs-``simulate_batch`` differential) and the HTTP front-end over a
real loopback socket (schema round-trip, malformed request handling,
routing, the header cap and the request deadline).  No pytest-asyncio:
each test drives its own event loop with ``asyncio.run``.
"""

import asyncio
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
    async def _with_server(body):
        service = _service()
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
