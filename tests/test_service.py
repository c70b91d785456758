"""End-to-end tests for the prediction service (``repro.service``).

Covers the service core directly (single-flight coalescing and a
cancelled coalesced requester, cache hits, stats accuracy, the
batch-vs-``simulate_batch`` differential) and the HTTP front-end over a
real loopback socket (schema round-trip, malformed request handling,
routing, the header cap, the request deadline, HTTP/1.0 connections,
warm hits answered from stored bytes, a conformance table of raw
request bytes to exact response bytes, and clients that do not read,
read slowly or pipeline a flood).  No pytest-asyncio: each test drives
its own event loop with ``asyncio.run``.
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

    def test_non_finite_parameters_and_fractional_windows_are_400s(self):
        # json.loads reads NaN, Infinity and 1e999, and canonical JSON
        # writes each as null, so such a point would have no key of its
        # own; a window length is an integer, never truncated.
        async def body(service, host, port):
            for bad in (
                {"formula": {"kind": "sqrt", "rtt": float("nan")}},
                {"formula": {"kind": "sqrt", "rtt": float("inf")}},
                {"formula": {"kind": "pftk-simplified", "rto": float("nan")}},
                {"history_length": 4.5},
                {"history_length": "4"},
            ):
                status, payload = await _post_json(
                    host, port, "/predict", dict(PREDICT_PAYLOAD, **bad)
                )
                assert status == 400 and "error" in payload, bad
            status, payload = await _http_request(
                host, port, "POST", "/predict",
                body=b'{"formula": {"kind": "sqrt", "rtt": 1e999}, '
                     b'"loss_event_rate": 0.05, "seed": 7}',
            )
            assert status == 400 and "rtt must be finite" in payload["error"]
            status, payload = await _post_json(
                host, port, "/predict/batch",
                dict(BATCH_PAYLOAD, history_lengths=[2, 4.5]),
            )
            assert status == 400 and "must be an integer" in payload["error"]
            assert _counter("service.computes_predict") == 0
            assert _counter("service.computes_batch") == 0

        run(lambda: self._with_server(body))

    def test_non_finite_loss_process_parameters_are_400s(self):
        # Each used to fail inside the compute, as a 500; NaN and
        # Infinity also shared one key, canonical JSON writing both as
        # null.
        point = dict(PREDICT_PAYLOAD, loss_event_rate=None,
                     coefficient_of_variation=None)

        async def body(service, host, port):
            for loss_process in (
                {"kind": "deterministic", "value": float("nan")},
                {"kind": "deterministic", "value": float("inf")},
                {"kind": "two-phase", "good_mean": float("inf"),
                 "bad_mean": 4.0, "switch_probability": 0.1},
                # Finite, but cv**2 overflows: these raised OverflowError
                # inside the compute.
                {"kind": "gamma", "mean": 10.0, "cv": 1e200},
                {"kind": "lognormal", "mean": 10.0, "cv": 1e200},
            ):
                status, payload = await _post_json(
                    host, port, "/predict", dict(point, loss_process=loss_process)
                )
                assert status == 400 and "finite" in payload["error"], loss_process
            batch = {
                "formulas": ["sqrt"], "num_events": NUM_EVENTS, "seed": 9,
                "loss_processes": [
                    GILBERT, {"kind": "trace", "intervals": [4.0, float("inf")]},
                ],
            }
            status, payload = await _post_json(host, port, "/predict/batch", batch)
            assert status == 400 and "finite" in payload["error"]
            assert _counter("service.computes_predict") == 0
            assert _counter("service.computes_batch") == 0

        run(lambda: self._with_server(body))

    def test_analytic_comprehensive_answers_for_every_formula(self):
        # Every formula carries its closed-form Proposition 3 integral.
        async def body(service, host, port):
            analytic = dict(method="analytic", control="comprehensive")
            for kind in ("aimd", "msmo97", "pftk-standard"):
                status, payload = await _post_json(
                    host, port, "/predict",
                    dict(PREDICT_PAYLOAD, formula=kind, **analytic),
                )
                assert status == 200, payload
                assert payload["result"]["throughput"] > 0.0
            status, payload = await _post_json(
                host, port, "/predict/batch",
                dict(BATCH_PAYLOAD, formulas=sorted(api.FORMULAS.kinds()),
                     **analytic),
            )
            assert status == 200, payload
            assert all(row["throughput"] > 0.0 for row in payload["results"])

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


# ----------------------------------------------------------------------
# HTTP conformance: raw request bytes to exact response bytes
# ----------------------------------------------------------------------
def _head(*lines):
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def _predict_raw(body, length=None):
    length = len(body) if length is None else length
    return _head(
        "POST /predict HTTP/1.1", "Host: x", f"Content-Length: {length}"
    ) + body


def _answer(status, reason, body, keep_alive=True):
    return (
        f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    ).encode() + body


def _error(status, reason, message, keep_alive=False):
    body = json.dumps({"error": message, "schema_version": 1}).encode()
    return _answer(status, reason, body, keep_alive)


def _bad(message, keep_alive=False):
    return _error(400, "Bad Request", message, keep_alive)


def _pad_headers(count):
    return [f"X-Pad-{i}: {i}" for i in range(count)]


GOLDEN_BODY = json.dumps(GOLDEN_HIT_REQUEST).encode()  # 164 bytes
BATCH_BODY = json.dumps(dict(BATCH_PAYLOAD, num_events=1000)).encode()
HEALTHZ = _head("GET /healthz HTTP/1.1", "Host: x")
HEALTHZ_BODY = b'{"status": "ok", "schema_version": 1}'
HEALTHZ_ANSWER = _answer(200, "OK", HEALTHZ_BODY)
NOT_FOUND = _error(404, "Not Found", "no route for /nope", keep_alive=True)
NOT_ALLOWED = _error(
    405, "Method Not Allowed", "use GET for /healthz", keep_alive=True
)
NOT_JSON = _bad(
    "request body is not valid JSON: Expecting property name enclosed in "
    "double quotes: line 1 column 2 (char 1)"
)
NOT_IMPLEMENTED = _error(
    501, "Not Implemented", "Transfer-Encoding is not supported"
)

#: (id, raw request bytes, whether the client then sends end-of-file,
#: the responses, whether the connection ended).  A response is its
#: exact bytes or their SHA-256.  Recorded at commit 97d244b, sent each
#: of the three ways, except the rows whose id starts with "framing":
#: that commit answered 200 to a ``Content-Length`` of ``+164`` or
#: ``1_64``, kept the last of two different ``Content-Length`` values
#: (a 200 here), read a chunked POST as an empty body (400, not valid
#: JSON), and answered a chunked GET with a 200 and then a 400
#: (malformed request line) for the chunk bytes.
CONFORMANCE = [
    ("healthz", HEALTHZ, False, [HEALTHZ_ANSWER], False),
    ("stats", _head("GET /stats HTTP/1.1", "Host: x"), False,
     ["fabef8af322c89b4ea4b2cb6da9a0adee3d34f655e8ef5ce7bfc02d44bc247ae"],
     False),
    ("predict-miss-then-stored-hit", _predict_raw(GOLDEN_BODY) * 2, False,
     ["6ab0f7be88768150d57a85881b3e5590be0dbe8fa149c56d96238a366d4623c0",
      "88fdada62d519e8dfb9fdf3a127085fd1844142e6307799ea7bc68b3db2cfc59"],
     False),
    ("predict-batch",
     _head("POST /predict/batch HTTP/1.1",
           f"Content-Length: {len(BATCH_BODY)}") + BATCH_BODY, False,
     ["31e4d6612fd24b1f2d3011ec0a738bcce8e8f2ecc30c1b3294a606ae82f23e53"],
     False),
    ("not-found", _head("GET /nope HTTP/1.1"), False, [NOT_FOUND], False),
    ("method-not-allowed", _head("POST /healthz HTTP/1.1"), False,
     [NOT_ALLOWED], False),
    ("invalid-json-closes", _predict_raw(b"{not json"), False, [NOT_JSON],
     True),
    ("bad-request-keeps-the-connection",
     _predict_raw(json.dumps(dict(GOLDEN_HIT_REQUEST, seed=-3)).encode()),
     False,
     [_bad("invalid SimConfig request: seed must be None or a non-negative "
           "integer, got -3", keep_alive=True)],
     False),
    ("malformed-request-line", _head("GET /healthz", "Host: x"), False,
     [_bad("malformed request line")], True),
    ("bad-content-length",
     _head("POST /predict HTTP/1.1", "Content-Length: abc"), False,
     [_bad("bad Content-Length: 'abc'")], True),
    ("negative-content-length",
     _head("POST /predict HTTP/1.1", "Content-Length: -5"), False,
     [_bad("negative Content-Length")], True),
    ("oversized-content-length",
     _head("POST /predict HTTP/1.1", "Content-Length: 8388609"), False,
     [_error(413, "Payload Too Large",
             "body of 8388609 bytes exceeds the limit")], True),
    ("request-line-of-20-kib",
     _head("GET /" + "a" * 20 * 1024 + " HTTP/1.1"), False,
     [_bad("request line too long")], True),
    ("header-line-of-20-kib",
     _head("GET /healthz HTTP/1.1", "X-Long: " + "a" * 20 * 1024), False,
     [_bad("truncated headers")], True),
    ("request-line-at-the-limit",
     _head("GET /" + "a" * (16 * 1024 - 14) + " HTTP/1.1"), False,
     [_error(404, "Not Found", "no route for /" + "a" * (16 * 1024 - 14),
             keep_alive=True)], False),
    ("unended-line-two-bytes-past-the-limit", b"G" * (16 * 1024 + 2),
     False, [_bad("request line too long")], True),
    ("header-line-at-the-limit",
     _head("GET /healthz HTTP/1.1", "X: " + "a" * (16 * 1024 - 3)), False,
     [_bad("header line too long")], True),
    ("100-headers", _head("GET /healthz HTTP/1.1", *_pad_headers(100)),
     False, [HEALTHZ_ANSWER], False),
    ("101-headers", _head("GET /healthz HTTP/1.1", *_pad_headers(101)),
     False, [_bad("more than 100 headers")], True),
    ("http10", _head("GET /healthz HTTP/1.0"), False,
     [_answer(200, "OK", HEALTHZ_BODY, keep_alive=False)], True),
    ("http10-keep-alive",
     _head("GET /healthz HTTP/1.0", "Connection: keep-alive"), False,
     [HEALTHZ_ANSWER], False),
    ("three-pipelined", HEALTHZ + _head("GET /nope HTTP/1.1") + HEALTHZ,
     False, [HEALTHZ_ANSWER, NOT_FOUND, HEALTHZ_ANSWER], False),
    ("405-then-pipelined", _head("POST /healthz HTTP/1.1") + HEALTHZ, False,
     [NOT_ALLOWED, HEALTHZ_ANSWER], False),
    ("malformed-then-pipelined", _head("GET /healthz") + HEALTHZ, False,
     [_bad("malformed request line")], True),
    ("invalid-json-then-pipelined", _predict_raw(b"{not json") + HEALTHZ,
     False, [NOT_JSON], True),
    ("request-then-eof", HEALTHZ, True, [HEALTHZ_ANSWER], True),
    ("eof-in-request-line", b"GET /heal", True,
     [_bad("truncated request line")], True),
    ("eof-in-head", b"GET /healthz HTTP/1.1\r\nHost: x\r\n", True,
     [_bad("truncated headers")], True),
    ("eof-in-body", _predict_raw(b'{"seed": 1', length=50), True,
     [_bad("truncated body")], True),
    ("framing-content-length-with-plus",
     _predict_raw(GOLDEN_BODY, length="+164"), False,
     [_bad("bad Content-Length: '+164'")], True),
    ("framing-content-length-with-underscore",
     _predict_raw(GOLDEN_BODY, length="1_64"), False,
     [_bad("bad Content-Length: '1_64'")], True),
    ("framing-two-different-content-lengths",
     _head("GET /healthz HTTP/1.1", "Content-Length: 5",
           "Content-Length: 0"), False,
     [_bad("conflicting Content-Length headers")], True),
    ("two-equal-content-lengths",
     _head("GET /healthz HTTP/1.1", "Content-Length: 0",
           "Content-Length: 0"), False, [HEALTHZ_ANSWER], False),
    ("framing-chunked-predict",
     _head("POST /predict HTTP/1.1", "Transfer-Encoding: chunked")
     + b"2\r\n{}\r\n0\r\n\r\n", False, [NOT_IMPLEMENTED], True),
    ("framing-chunked-healthz",
     _head("GET /healthz HTTP/1.1", "Transfer-Encoding: chunked")
     + b"0\r\n\r\n", False, [NOT_IMPLEMENTED], True),
]

#: The three ways a row is sent: whole, one byte per event-loop turn,
#: and with its first head short of its last byte for 20 ms.
WAYS = ("whole", "bytes", "incomplete-head")


class _RawClient:
    """A client on a raw non-blocking socket: a reset from the server
    loses none of the bytes received before it."""

    def __init__(self, sock, timeout=5.0):
        self.sock = sock
        self.timeout = timeout
        self.data = b""
        self.closed = False

    @classmethod
    async def connect(cls, port, rcvbuf=None):
        sock = socket.socket()
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(
            sock, ("127.0.0.1", port)
        )
        return cls(sock)

    async def send(self, raw, way="whole"):
        """Send ``raw`` one of the :data:`WAYS`; False once the server
        has reset the connection."""
        if way == "whole":
            parts = [raw]
        elif way == "bytes":
            parts = [raw[i:i + 1] for i in range(len(raw))]
        else:
            end = raw.find(b"\r\n\r\n")
            cut = end + 3 if end >= 0 else len(raw) - 1
            parts = [raw[:cut], raw[cut:]]
        loop = asyncio.get_running_loop()
        for part in parts:
            try:
                await loop.sock_sendall(self.sock, part)
            except (BrokenPipeError, ConnectionResetError):
                return False
            await asyncio.sleep(0.02 if way == "incomplete-head" else 0)
        return True

    async def more(self, size=1 << 16):
        try:
            chunk = await asyncio.wait_for(
                asyncio.get_running_loop().sock_recv(self.sock, size),
                self.timeout,
            )
        except ConnectionResetError:
            chunk = b""
        self.closed = not chunk
        self.data += chunk
        return bool(chunk)

    async def response(self):
        """The next whole response; None at end-of-file or a reset."""
        while b"\r\n\r\n" not in self.data:
            if self.closed or not await self.more():
                return None
        end = self.data.index(b"\r\n\r\n") + 4
        length = int(self.data.split(b"Content-Length: ")[1].split(b"\r")[0])
        while len(self.data) < end + length:
            if self.closed or not await self.more():
                return None
        response = self.data[:end + length]
        self.data = self.data[end + length:]
        return response

    async def ended(self):
        """True if the connection ended, False if a probe request is
        answered; any other bytes are returned as they are."""
        if not self.closed and not self.data:
            await self.send(HEALTHZ)
        answer = await self.response()
        if answer is None:
            return self.data or True
        return False if answer == HEALTHZ_ANSWER else answer

    def close(self):
        self.sock.close()


class FixedClock:
    """``time`` for the service core: /stats reports a fixed uptime."""

    @staticmethod
    def time():
        return 1000.0


async def _converse(raw, way, eof, count):
    """Send one row's bytes to a fresh service; its first ``count``
    responses and whether the connection ended."""
    telemetry.reset()
    service = _service()
    server = await start_service(service, port=0)
    client = await _RawClient.connect(server.sockets[0].getsockname()[1])
    try:
        await client.send(raw, way)
        if eof:
            try:
                client.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        responses = []
        for _ in range(count):
            response = await client.response()
            if response is None:
                break
            responses.append(response)
        return responses, await client.ended()
    finally:
        client.close()
        server.close()
        await server.wait_closed()
        service.close()


class TestConformance:
    @pytest.mark.parametrize(
        "raw, eof, expected, ended",
        [row[1:] for row in CONFORMANCE],
        ids=[row[0] for row in CONFORMANCE],
    )
    def test_row_reads_the_same_every_way(
        self, monkeypatch, raw, eof, expected, ended
    ):
        monkeypatch.setattr(service_core, "time", FixedClock)

        async def body():
            for way in WAYS:
                responses, got_ended = await _converse(
                    raw, way, eof, len(expected)
                )
                shown = [
                    response if isinstance(want, bytes)
                    else hashlib.sha256(response).hexdigest()
                    for response, want in zip(responses, expected)
                ]
                assert (shown, got_ended) == (expected, ended), way

        run(body)


# ----------------------------------------------------------------------
# Clients that do not read, read slowly or pipeline a flood
# ----------------------------------------------------------------------
class LargeStats:
    """A service whose /stats body is ``size`` bytes of padding."""

    def __init__(self, size):
        self.size = size

    def stats(self):
        return {"blob": "x" * self.size}


async def _serving(service, sndbuf=None):
    """A server for ``service``; ``sndbuf`` caps the kernel send buffer
    of the connections it accepts, so a response that is not read stays
    in the server's own buffer."""
    server = await start_service(service, port=0)
    if sndbuf is not None:
        server.sockets[0].setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
    return server, server.sockets[0].getsockname()[1]


class TestSlowClients:
    def test_client_that_never_reads_is_aborted_within_two_deadlines(
        self, monkeypatch
    ):
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", 0.5)
        size = 1024 * 1024

        async def body():
            server, port = await _serving(LargeStats(size), sndbuf=16 * 1024)
            client = await _RawClient.connect(port, rcvbuf=4096)
            try:
                await client.send(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                await asyncio.sleep(2 * http.REQUEST_DEADLINE_S)
                while await client.more():
                    pass
            finally:
                client.close()
                server.close()
                await server.wait_closed()
            assert client.closed
            assert len(client.data) < size

        run(body)

    def test_slow_reader_gets_the_whole_response(self, monkeypatch):
        # 32 KiB every 0.15 s: the output shrinks within every deadline,
        # though the response takes several deadlines to send.
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", 0.5)
        size = 1024 * 1024

        async def body():
            server, port = await _serving(LargeStats(size), sndbuf=16 * 1024)
            client = await _RawClient.connect(port, rcvbuf=64 * 1024)
            try:
                started = time.monotonic()
                await client.send(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
                response = None
                while response is None:
                    await asyncio.sleep(0.15)
                    assert await client.more(32 * 1024)
                    if b"\r\n\r\n" in client.data:
                        head, _, payload = client.data.partition(b"\r\n\r\n")
                        length = int(head.split(b"Content-Length: ")[1]
                                     .split(b"\r")[0])
                        if len(payload) == length:
                            response = payload
                elapsed = time.monotonic() - started
            finally:
                client.close()
                server.close()
                await server.wait_closed()
            assert len(json.loads(response)["blob"]) == size
            assert elapsed > 4 * http.REQUEST_DEADLINE_S

        run(body)

    def test_idle_connection_closes_a_deadline_after_its_last_response(
        self, monkeypatch
    ):
        # The deadline restarts with each response: a request answered
        # 0.2 s in moves the close from 0.3 s to about 0.5 s.
        monkeypatch.setattr(http, "REQUEST_DEADLINE_S", 0.3)

        async def body():
            service = _service()
            server, port = await _serving(service)
            client = await _RawClient.connect(port)
            try:
                started = time.monotonic()
                await asyncio.sleep(0.2)
                await client.send(HEALTHZ)
                assert await client.response() == HEALTHZ_ANSWER
                assert await client.response() is None
                elapsed = time.monotonic() - started
            finally:
                client.close()
                server.close()
                await server.wait_closed()
                service.close()
            assert 0.45 < elapsed < 1.5

        run(body)

    def test_pipelined_flood_neither_blocks_others_nor_loses_order(self):
        # 2000 pipelined requests in one write, every 100th a 404 naming
        # its index; the client reads nothing for 0.5 s.
        requests = [
            _head(f"GET /nope-{i} HTTP/1.1") if i % 100 == 99 else HEALTHZ
            for i in range(2000)
        ]
        golden = _predict_raw(GOLDEN_BODY)

        async def body():
            service = _service()
            server, port = await _serving(service, sndbuf=16 * 1024)
            flood = await _RawClient.connect(port, rcvbuf=4096)
            other = await _RawClient.connect(port)
            try:
                await other.send(golden)  # the miss
                assert json.loads(
                    (await other.response()).partition(b"\r\n\r\n")[2]
                )["cache"] == "miss"
                await flood.send(b"".join(requests))
                await asyncio.sleep(0.1)
                started = time.monotonic()
                await other.send(golden)
                hit = await other.response()
                waited = time.monotonic() - started
                await asyncio.sleep(0.4)
                responses = [await flood.response() for _ in requests]
                ended = await flood.ended()
            finally:
                flood.close()
                other.close()
                server.close()
                await server.wait_closed()
                service.close()
            assert hit.endswith(b"\r\n\r\n" + GOLDEN_HIT_BODY)
            assert waited < 0.4
            for i, response in enumerate(responses):
                assert response == (
                    _error(404, "Not Found", f"no route for /nope-{i}",
                           keep_alive=True)
                    if i % 100 == 99 else HEALTHZ_ANSWER
                ), i
            assert ended is False

        run(body)
