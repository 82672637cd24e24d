"""HTTP/JSON frontend: endpoints, framing, shedding, drain, wire parity."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import (
    BackgroundHttpServer,
    DiagnosisRequest,
    DiagnosisService,
    HttpClient,
    HttpFrontend,
    ResultStore,
    parse_http_target,
    parse_metrics_text,
)
from repro.service.executor import run_direct

Q6 = ("hypercube", {"dimension": 6})


def _request(seed: int = 0, instance=Q6, **kwargs) -> DiagnosisRequest:
    return DiagnosisRequest.seeded(*instance, seed=seed, **kwargs)


def _run(coro):
    return asyncio.run(coro)


async def _with_frontend(inner, **service_kwargs):
    service = DiagnosisService(**service_kwargs)
    async with HttpFrontend(service) as frontend:
        async with HttpClient(frontend.host, frontend.port) as client:
            result = await inner(client, frontend, service)
    await service.close()
    return result


class TestEndpoints:
    def test_healthz(self):
        async def inner(client, frontend, service):
            return await client.healthz()

        body = _run(_with_frontend(inner))
        assert body["ok"] is True
        assert body["pending"] == 0

    def test_diagnose_single_matches_direct(self):
        request = _request(3)

        async def inner(client, frontend, service):
            return await client.diagnose(request)

        status, response = _run(_with_frontend(inner))
        direct = run_direct(request)
        assert status == 200
        assert response.faulty == direct.faulty
        assert response.healthy_root == direct.healthy_root
        assert response.lookups == direct.lookups
        assert response.syndrome_digest == direct.syndrome_digest

    def test_undiagnosable_instance_answers_200_with_its_error(self):
        """Q_3 has no diagnosability: alone it gets a 200 whose ``error`` is
        set, and in a batched body it never fails Q_7 beside it."""
        q3 = _request(1, ("hypercube", {"dimension": 3}))
        q7 = _request(1, ("hypercube", {"dimension": 7}))

        async def inner(client, frontend, service):
            batched = await client.request(
                "POST", "/diagnose", {"requests": [q3.to_wire(), q7.to_wire()]}
            )
            return batched, await client.diagnose(q3)

        (status, payload), (single_status, single) = _run(_with_frontend(inner))
        assert status == 200 and single_status == 200
        failed, answered = payload["responses"]
        assert failed["error"] == single.error == run_direct(q3).error
        assert single.error.startswith("ValueError: diagnosability")
        direct = run_direct(q7)
        assert answered["error"] is None
        assert tuple(answered["faulty"]) == direct.faulty
        assert answered["lookups"] == direct.lookups
        assert answered["syndrome_digest"] == direct.syndrome_digest

    def test_diagnose_batch_body(self):
        requests = [_request(seed) for seed in range(3)]

        async def inner(client, frontend, service):
            status, payload = await client.request(
                "POST", "/diagnose",
                {"requests": [request.to_wire() for request in requests]},
            )
            return status, payload

        status, payload = _run(_with_frontend(inner))
        assert status == 200
        assert len(payload["responses"]) == 3
        for request, entry in zip(requests, payload["responses"]):
            assert tuple(entry["faulty"]) == run_direct(request).faulty

    def test_explicit_syndrome_over_the_wire(self, q5):
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.backend.csr import compile_network
        from repro.core.faults import random_faults

        faults = random_faults(q5, 3, seed=4)
        syndrome = ArraySyndrome.from_faults(compile_network(q5), faults, seed=4)
        request = DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": 5}, syndrome
        )

        async def inner(client, frontend, service):
            return await client.diagnose(request)

        status, response = _run(_with_frontend(inner))
        assert status == 200
        assert response.faulty_set == faults

    def test_stats_includes_service_and_http_sections(self):
        async def inner(client, frontend, service):
            await client.diagnose(_request(0))
            return await client.stats()

        stats = _run(_with_frontend(inner, store=ResultStore()))
        assert stats["requests"] == 1
        assert stats["store"]["results"] == 1
        assert stats["http"]["requests"] == 2  # the diagnose + this stats call
        assert stats["http"]["connections_total"] == 1
        assert stats["http"]["shed"] == 0

    def test_keep_alive_reuses_one_connection(self):
        async def inner(client, frontend, service):
            for seed in range(3):
                status, _ = await client.diagnose(_request(seed))
                assert status == 200
            return frontend.connections_total

        assert _run(_with_frontend(inner)) == 1


class TestErrors:
    def test_unknown_path_404(self):
        async def inner(client, frontend, service):
            return await client.request("GET", "/nope")

        status, payload = _run(_with_frontend(inner))
        assert status == 404
        assert "/diagnose" in payload["error"]

    def test_wrong_method_405(self):
        async def inner(client, frontend, service):
            first = await client.request("POST", "/stats")
            second = await client.request("GET", "/diagnose")
            return first, second

        (status_a, body_a), (status_b, body_b) = _run(_with_frontend(inner))
        assert status_a == 405 and "GET" in body_a["error"]
        assert status_b == 405 and "POST" in body_b["error"]

    def test_invalid_json_reports_position(self):
        async def inner(client, frontend, service):
            client._writer.write(
                b"POST /diagnose HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\n  oops}"
            )
            await client._writer.drain()
            return await client._read_response()

        status, payload = _run(_with_frontend(inner))
        assert status == 400
        assert payload["error"].startswith("body:2:3:")

    @pytest.mark.parametrize("length", ["abc", "-1", "\xb2", "1 2"])
    def test_malformed_content_length_400(self, length):
        async def inner(client, frontend, service):
            client._writer.write(
                f"POST /diagnose HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                .encode("latin-1")
            )
            await client._writer.drain()
            answer = await asyncio.wait_for(client._read_response(), 5)
            async with HttpClient(frontend.host, frontend.port) as fresh:
                health = await asyncio.wait_for(fresh.healthz(), 5)
            return answer, health

        (status, payload), health = _run(_with_frontend(inner))
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert health["ok"] is True

    def test_bad_request_fields_400(self):
        async def inner(client, frontend, service):
            single = await client.request(
                "POST", "/diagnose", {"family": "hypercube", "bogus": 1}
            )
            batch = await client.request(
                "POST", "/diagnose",
                {"requests": [
                    {"family": "hypercube", "params": {"dimension": 5}},
                    {"family": "hypercube", "params": {"dimension": "x"}},
                ]},
            )
            return single, batch

        (status_a, body_a), (status_b, body_b) = _run(_with_frontend(inner))
        assert status_a == 400 and "bogus" in body_a["error"]
        assert status_b == 400 and body_b["error"].startswith("requests[1]:")

    @pytest.mark.parametrize("syndrome_hex", ["02", "ff", "0001ff00"])
    def test_syndrome_bytes_other_than_0_and_1_are_400(self, syndrome_hex):
        async def inner(client, frontend, service):
            return await client.request(
                "POST", "/diagnose",
                {"family": "hypercube", "params": {"dimension": 5},
                 "syndrome_hex": syndrome_hex},
            )

        status, payload = _run(_with_frontend(inner))
        assert status == 400 and "0/1" in payload["error"]

    def test_empty_batch_rejected(self):
        async def inner(client, frontend, service):
            return await client.request("POST", "/diagnose", {"requests": []})

        status, payload = _run(_with_frontend(inner))
        assert status == 400
        assert "non-empty" in payload["error"]

    def test_constructor_level_failure_is_400_not_500(self):
        async def inner(client, frontend, service):
            return await client.request(
                "POST", "/diagnose",
                {"family": "hypercube", "params": {"dim": 7}},
            )

        status, payload = _run(_with_frontend(inner))
        assert status == 400
        assert "dim" in payload["error"]

    @pytest.mark.parametrize(
        "instance", [("star", {"n": 10}), ("hypercube", {"dimension": 22})]
    )
    def test_oversized_topology_is_400_before_it_is_built(self, instance):
        async def inner(client, frontend, service):
            loop = asyncio.get_running_loop()
            started = loop.time()
            refused = await client.request(
                "POST", "/diagnose",
                {"family": instance[0], "params": instance[1]},
            )
            elapsed = loop.time() - started
            return refused, elapsed, await client.diagnose(_request(2))

        (status, payload), elapsed, (next_status, response) = _run(
            _with_frontend(inner)
        )
        assert status == 400 and "nodes" in payload["error"]
        assert elapsed < 2.0  # building either one takes tens of seconds
        assert next_status == 200
        assert response.faulty == run_direct(_request(2)).faulty

    @pytest.mark.parametrize("params", [{"n": 65536, "k": 1}, {"n": 256, "k": 2}])
    def test_dense_topology_is_400_before_it_is_built(self, params, monkeypatch):
        """Within the node cap, but K_65536 and A_{256,2} have 1.4·10^14
        and 8.4·10^9 comparison pairs: the slot cap refuses both."""
        from repro.service import executor

        def never(*args, **kwargs):
            raise AssertionError("a dense topology was built")

        monkeypatch.setattr(executor, "create_network", never)

        async def inner(client, frontend, service):
            refused = await client.request(
                "POST", "/diagnose", {"family": "arrangement", "params": params},
            )
            return refused, service.stats()["batches"]

        (status, payload), batches = _run(_with_frontend(inner))
        assert status == 400 and "comparison pairs" in payload["error"]
        assert batches == 0

    def test_execution_errors_stay_in_band(self):
        """A Theorem-1 violation is an error *response* (200), not an HTTP error."""
        doomed = DiagnosisRequest.seeded("pancake", {"n": 4}, fault_count=14)

        async def inner(client, frontend, service):
            return await client.diagnose(doomed)

        status, response = _run(_with_frontend(inner))
        assert status == 200
        assert not response.ok
        assert response.error == run_direct(doomed).error

    def test_malformed_request_line_400(self):
        async def inner(client, frontend, service):
            client._writer.write(b"NONSENSE\r\n\r\n")
            await client._writer.drain()
            return await client._read_response()

        status, payload = _run(_with_frontend(inner))
        assert status == 400
        assert "request line" in payload["error"]


class TestAdmissionControl:
    def test_shed_single_requests_answer_429_with_retry_after(self):
        # One keep-alive connection serialises its requests, so saturation
        # needs several connections — one client per request, fired together
        # at a single executor slot so the queue bound engages.
        async def saturate():
            service = DiagnosisService(max_queue_depth=2)
            async with HttpFrontend(service) as frontend:
                clients = [
                    HttpClient(frontend.host, frontend.port) for _ in range(5)
                ]
                for client in clients:
                    await client.connect()
                try:
                    results = await asyncio.gather(*(
                        client.request(
                            "POST", "/diagnose", _request(seed).to_wire()
                        )
                        for seed, client in enumerate(clients)
                    ))
                finally:
                    for client in clients:
                        await client.close()
                shed = frontend.shed
            await service.close()
            return results, shed

        results, shed = _run(saturate())
        statuses = sorted(status for status, _ in results)
        assert statuses.count(429) >= 1
        assert statuses.count(200) >= 2
        assert shed == statuses.count(429)
        for status, payload in results:
            if status == 429:
                assert "queue full" in payload["error"]

    def test_batch_body_sheds_per_item(self):
        async def inner(client, frontend, service):
            body = {"requests": [_request(seed).to_wire() for seed in range(5)]}
            return await client.request("POST", "/diagnose", body)

        status, payload = _run(_with_frontend(inner, max_queue_depth=2))
        assert status == 200
        entries = payload["responses"]
        served = [entry for entry in entries if "faulty" in entry]
        rejected = [entry for entry in entries if entry.get("rejected")]
        assert len(served) == 2
        assert len(rejected) == 3
        assert all("queue full" in entry["error"] for entry in rejected)
        # The served ones are still bit-identical to the direct pipeline.
        for seed, entry in enumerate(entries):
            if "faulty" in entry:
                assert tuple(entry["faulty"]) == run_direct(_request(seed)).faulty


class TestLifecycle:
    def test_graceful_drain_finishes_inflight_requests(self, monkeypatch):
        import threading

        from repro.service import service as service_module

        entered, release = threading.Event(), threading.Event()
        run_batch_local = service_module.run_batch_local

        def held_batch(*args):
            entered.set()
            release.wait(10)
            return run_batch_local(*args)

        monkeypatch.setattr(service_module, "run_batch_local", held_batch)

        async def scenario():
            service = DiagnosisService()
            frontend = HttpFrontend(service)
            await frontend.start()
            client = HttpClient(frontend.host, frontend.port)
            await client.connect()
            post = asyncio.create_task(client.diagnose(_request(0)))
            # Handshake, not a nap: close only once the request's batch is
            # really running in the executor, and let it finish only after
            # the drain has begun.
            deadline = asyncio.get_running_loop().time() + 10
            while not entered.is_set():
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.001)
            closing = asyncio.create_task(frontend.close())
            await asyncio.sleep(0)  # the drain begins, and waits for the batch
            assert frontend._closing and not closing.done()
            release.set()
            await closing
            status, response = await post
            await client.close()
            await service.close()
            return status, response

        status, response = _run(scenario())
        assert status == 200
        assert response.faulty == run_direct(_request(0)).faulty

    def test_ephemeral_port_is_reported(self):
        async def scenario():
            service = DiagnosisService()
            async with HttpFrontend(service, port=0) as frontend:
                assert frontend.port != 0
                assert str(frontend.port) in frontend.address
            await service.close()

        _run(scenario())

    def test_background_server_runs_from_sync_code(self):
        with BackgroundHttpServer(
            lambda: DiagnosisService(store=ResultStore())
        ) as server:
            async def drive():
                async with HttpClient("127.0.0.1", server.port) as client:
                    status, response = await client.diagnose(_request(1))
                    again_status, again = await client.diagnose(_request(1))
                    return status, response, again_status, again

            status, response, again_status, again = asyncio.run(drive())
        assert status == again_status == 200
        assert again.source == "store"
        assert again.faulty == response.faulty
        assert server.final_stats["http"]["requests"] == 2

    def test_background_server_factory_error_surfaces(self):
        def explode():
            raise RuntimeError("factory broke")

        with pytest.raises(RuntimeError, match="factory broke"):
            with BackgroundHttpServer(explode):
                pass  # pragma: no cover - never entered


class TestConnectionHeader:
    """``Connection`` is a case-insensitive comma-separated token list.

    Regression: the server used to compare the raw header string to
    ``"close"``, so ``Connection: Close`` (or ``close, te``) left the
    connection open and the peer hung waiting for EOF.
    """

    def test_helper_semantics(self):
        from repro.service.http import _connection_requests_close

        assert _connection_requests_close("close")
        assert _connection_requests_close("Close")
        assert _connection_requests_close("CLOSE")
        assert _connection_requests_close("close, te")
        assert _connection_requests_close(" keep-alive , Close ")
        assert not _connection_requests_close("keep-alive")
        assert not _connection_requests_close("closed")  # not the token
        assert not _connection_requests_close("")
        assert not _connection_requests_close(None)

    def test_mixed_case_close_closes_the_connection(self):
        async def inner(client, frontend, service):
            status, _ = await client.request(
                "GET", "/healthz", headers={"Connection": "Close"}
            )
            return status, client._writer is None

        status, closed = _run(_with_frontend(inner))
        assert status == 200
        assert closed  # server answered Connection: close; client dropped it

    def test_token_list_containing_close_closes(self):
        async def inner(client, frontend, service):
            status, _ = await client.request(
                "GET", "/healthz", headers={"Connection": "close, TE"}
            )
            return status, client._writer is None

        status, closed = _run(_with_frontend(inner))
        assert status == 200
        assert closed

    def test_keep_alive_token_does_not_close(self):
        async def inner(client, frontend, service):
            for _ in range(2):
                status, _ = await client.request(
                    "GET", "/healthz", headers={"Connection": "keep-alive"}
                )
                assert status == 200
            return client._writer is not None, frontend.connections_total

        alive, connections = _run(_with_frontend(inner))
        assert alive
        assert connections == 1


class TestMetricsEndpoint:
    def test_scrape_parses_and_matches_stats(self):
        async def inner(client, frontend, service):
            for seed in range(3):
                status, _ = await client.diagnose(_request(seed))
                assert status == 200
            status, _ = await client.request(
                "POST", "/diagnose", _request(7).to_wire(),
                headers={"X-Tenant": "acme"},
            )
            assert status == 200
            text = await client.metrics_text()
            stats = await client.stats()
            return text, stats

        text, stats = _run(_with_frontend(inner, store=ResultStore()))
        samples = parse_metrics_text(text)

        def sample(name, **labels):
            return samples[(name, tuple(sorted(labels.items())))]

        assert sample("repro_requests_total") == stats["requests"] == 4
        assert sample("repro_tenant_admitted_total", tenant="default") == 3
        assert sample("repro_tenant_admitted_total", tenant="acme") == 1
        assert sample("repro_store_results") == stats["store"]["results"] == 4
        assert sample("repro_request_latency_seconds_count") == 4
        # The scrape itself was the fifth HTTP request on this connection.
        assert sample("repro_http_requests_total") == 5
        assert sample("repro_http_connections_total") == 1
        # Per-tenant series sum to the global counters.
        admitted = sum(
            value for (name, _), value in samples.items()
            if name == "repro_tenant_admitted_total"
        )
        assert admitted == stats["requests"]

    def test_turns_read_the_same_on_stats_and_metrics(self):
        """A mixed-topology load: /stats ``turns`` and /metrics
        ``repro_turns_total`` render the same counter."""
        star = ("star", {"n": 5})

        async def inner(client, frontend, service):
            # One batched body over two topologies is one in-process turn.
            status, _ = await client.request("POST", "/diagnose", {"requests": [
                _request(seed, instance).to_wire()
                for seed in range(3) for instance in (Q6, star)
            ]})
            assert status == 200
            for seed in range(2):
                status, _ = await client.diagnose(_request(10 + seed, star))
                assert status == 200
            return await client.metrics_text(), await client.stats()

        text, stats = _run(_with_frontend(inner))
        turns = parse_metrics_text(text)[("repro_turns_total", ())]
        assert turns == stats["turns"] == 3
        assert stats["batches"] == 4

    def test_content_type_is_prometheus_text(self):
        async def inner(client, frontend, service):
            client._writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
            await client._writer.drain()
            head = await client._reader.readuntil(b"\r\n\r\n")
            headers = {}
            for line in head.decode("latin-1").split("\r\n")[1:]:
                if line:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
            body = await client._reader.readexactly(
                int(headers["content-length"])
            )
            return headers, body.decode()

        headers, body = _run(_with_frontend(inner))
        assert headers["content-type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        parse_metrics_text(body)  # structurally valid even with zero traffic

    def test_post_is_405(self):
        async def inner(client, frontend, service):
            return await client.request("POST", "/metrics")

        status, payload = _run(_with_frontend(inner))
        assert status == 405
        assert "GET" in payload["error"]


class TestDashboard:
    def test_dashboard_is_html_over_stats(self):
        async def inner(client, frontend, service):
            status, _ = await client.request(
                "POST", "/diagnose", _request(0).to_wire(),
                headers={"X-Tenant": "acme"},
            )
            assert status == 200
            return await client.request("GET", "/dashboard")

        status, body = _run(_with_frontend(inner))
        assert status == 200
        assert isinstance(body, str)
        assert body.startswith("<!DOCTYPE html>")
        assert "acme" in body
        assert "</html>" in body

    def test_post_is_405(self):
        async def inner(client, frontend, service):
            return await client.request("POST", "/dashboard")

        status, payload = _run(_with_frontend(inner))
        assert status == 405


class TestTenantHeader:
    def test_header_sets_the_default_tenant(self):
        async def inner(client, frontend, service):
            status, _ = await client.request(
                "POST", "/diagnose", _request(0).to_wire(),
                headers={"X-Tenant": "acme"},
            )
            assert status == 200
            return await client.stats()

        stats = _run(_with_frontend(inner))
        assert stats["tenants"]["acme"]["admitted"] == 1
        assert "default" not in stats["tenants"]

    def test_body_tenant_wins_over_header(self):
        async def inner(client, frontend, service):
            status, _ = await client.request(
                "POST", "/diagnose", _request(0, tenant="vip").to_wire(),
                headers={"X-Tenant": "acme"},
            )
            assert status == 200
            return await client.stats()

        stats = _run(_with_frontend(inner))
        assert stats["tenants"]["vip"]["admitted"] == 1
        assert "acme" not in stats["tenants"]

    def test_header_applies_per_item_in_batch_bodies(self):
        async def inner(client, frontend, service):
            body = {"requests": [
                _request(0).to_wire(),
                _request(1, tenant="vip").to_wire(),
            ]}
            status, payload = await client.request(
                "POST", "/diagnose", body, headers={"X-Tenant": "acme"}
            )
            assert status == 200
            assert len(payload["responses"]) == 2
            return await client.stats()

        stats = _run(_with_frontend(inner))
        assert stats["tenants"]["acme"]["admitted"] == 1
        assert stats["tenants"]["vip"]["admitted"] == 1

    def test_invalid_header_is_400(self):
        async def inner(client, frontend, service):
            return await client.request(
                "POST", "/diagnose", _request(0).to_wire(),
                headers={"X-Tenant": "no spaces allowed"},
            )

        status, payload = _run(_with_frontend(inner))
        assert status == 400
        assert payload["error"].startswith("X-Tenant header:")

    def test_quota_shed_answers_429_per_tenant(self):
        async def inner(client, frontend, service):
            body = {"requests": [
                _request(seed, tenant="hot").to_wire() for seed in range(4)
            ]}
            status, payload = await client.request("POST", "/diagnose", body)
            assert status == 200
            rejected = [e for e in payload["responses"] if e.get("rejected")]
            return rejected, await client.stats()

        rejected, stats = _run(_with_frontend(inner, max_queue_per_tenant=2))
        assert len(rejected) == 2
        assert all("hot" in entry["error"] for entry in rejected)
        assert stats["tenants"]["hot"]["rejected"] == 2
        assert stats["tenants"]["hot"]["admitted"] == 2


class TestTargetParsing:
    def test_accepted_forms(self):
        assert parse_http_target("http://127.0.0.1:8091") == ("127.0.0.1", 8091)
        assert parse_http_target("localhost:80") == ("localhost", 80)
        assert parse_http_target(":9000") == ("127.0.0.1", 9000)

    def test_rejected_forms(self):
        with pytest.raises(ValueError, match="explicit port"):
            parse_http_target("http://localhost")
        with pytest.raises(ValueError, match="http://"):
            parse_http_target("https://localhost:443")


class TestWireCodecs:
    def test_request_roundtrip_seeded_and_explicit(self):
        seeded = _request(5, placement="clustered", behavior="mimic")
        assert DiagnosisRequest.from_dict(seeded.to_wire()) == seeded
        explicit = DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": 5}, b"\x01\x00\x01"
        )
        assert DiagnosisRequest.from_dict(explicit.to_wire()) == explicit

    def test_syndrome_hex_rejects_seeded_fields(self):
        with pytest.raises(ValueError, match="cannot combine"):
            DiagnosisRequest.from_dict(
                {"family": "hypercube", "syndrome_hex": "00", "seed": 1}
            )
        with pytest.raises(ValueError, match="bad syndrome_hex"):
            DiagnosisRequest.from_dict(
                {"family": "hypercube", "syndrome_hex": "zz"}
            )

    def test_response_wire_roundtrip(self):
        request = _request(2)
        direct = run_direct(request)
        decoded = type(direct).from_wire(json.loads(json.dumps(direct.to_wire())))
        assert decoded == direct
