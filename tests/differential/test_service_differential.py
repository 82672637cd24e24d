"""Service-vs-direct differential suite.

The serving layer reorders, batches, caches and remembers — it must never
*change* an answer.  For every registry family this suite submits seeded
request mixes through :class:`~repro.service.DiagnosisService` (coalesced
in-process, naive, and — for a spot check — over a real shared-memory worker
pool) and pins every response bit-identical to the direct
:class:`~repro.core.diagnosis.GeneralDiagnoser` pipeline: accusation set,
healthy root, syndrome lookup count, syndrome digest, and the agreed
``DiagnosisError`` failures.
"""

from __future__ import annotations

import asyncio

from repro.parallel import WorkerPool, spawn_seeds
from repro.service import DiagnosisRequest, DiagnosisService, ResultStore
from repro.service.executor import run_direct
from tests.conftest import TINY_PARAMS

PLACEMENTS = ("random", "clustered")


def _family_requests(network) -> list[DiagnosisRequest]:
    """Seeded request mix over one family (repeats included deliberately)."""
    base = sum(ord(c) for c in network.family)
    params = TINY_PARAMS[network.family]
    requests = [
        DiagnosisRequest.seeded(
            network.family, params, placement=placement, seed=seed
        )
        for seed in spawn_seeds(base, 2)
        for placement in PLACEMENTS
    ]
    return requests + requests[:2]  # repeats exercise coalescing/store paths


def _serve(service: DiagnosisService, requests):
    async def run():
        async with service:
            return await service.submit_many(requests)

    return asyncio.run(run())


def _assert_matches_direct(network, requests, responses):
    csr = getattr(network, "_csr_adjacency", None)
    for request, response in zip(requests, responses):
        direct = run_direct(request, network=network, csr=csr)
        assert (
            response.faulty,
            response.healthy_root,
            response.lookups,
            response.syndrome_digest,
            response.error,
        ) == (
            direct.faulty,
            direct.healthy_root,
            direct.lookups,
            direct.syndrome_digest,
            direct.error,
        ), (
            f"{network.family}: served response diverged from the direct "
            f"pipeline on {request.describe()} (source={response.source})"
        )


class TestServiceDifferential:
    def test_coalesced_service_matches_direct_on_every_family(self, tiny_network):
        requests = _family_requests(tiny_network)
        service = DiagnosisService(store=ResultStore())
        responses = _serve(service, requests)
        _assert_matches_direct(tiny_network, requests, responses)
        stats = service.stats()
        assert stats["worker_compiles"] == 0
        assert stats["coalesced_batches"] >= 1  # the mix shares topologies

    def test_naive_service_matches_direct_on_every_family(self, tiny_network):
        requests = _family_requests(tiny_network)[:4]
        responses = _serve(
            DiagnosisService(coalesce=False, topology_cache_capacity=0), requests
        )
        _assert_matches_direct(tiny_network, requests, responses)

    def test_pooled_service_matches_direct_spot_check(self):
        from repro.networks.registry import compiled_network

        network, _ = compiled_network("hypercube", dimension=8)
        requests = [
            DiagnosisRequest.seeded(
                "hypercube", {"dimension": 8}, placement=placement, seed=seed
            )
            for seed in spawn_seeds(88, 3)
            for placement in PLACEMENTS
        ]
        with WorkerPool(max_workers=2) as pool:
            service = DiagnosisService(pool=pool)
            responses = _serve(service, requests)
            stats = service.stats()
        _assert_matches_direct(network, requests, responses)
        assert stats["worker_compiles"] == 0

    def test_http_transport_matches_direct_on_every_family(self, tiny_network):
        """The full wire path — JSON encode, HTTP frame, parse, serve,
        serialise, parse back — must not change a single answer."""
        from repro.service import HttpClient, HttpFrontend

        requests = _family_requests(tiny_network)

        async def over_the_wire():
            service = DiagnosisService(store=ResultStore())
            async with HttpFrontend(service) as frontend:
                async with HttpClient(frontend.host, frontend.port) as client:
                    responses = []
                    for request in requests:
                        status, response = await client.diagnose(request)
                        assert status == 200, (tiny_network.family, status)
                        responses.append(response)
            await service.close()
            return responses

        responses = asyncio.run(over_the_wire())
        _assert_matches_direct(tiny_network, requests, responses)

    def test_store_served_repeats_stay_identical(self, q5):
        request = DiagnosisRequest.seeded("hypercube", {"dimension": 5}, seed=17)
        store = ResultStore()
        first = _serve(DiagnosisService(store=store), [request])[0]
        second = _serve(DiagnosisService(store=store), [request])[0]
        assert second.source == "store"
        assert (second.faulty, second.healthy_root, second.lookups) == (
            first.faulty, first.healthy_root, first.lookups
        )
        _assert_matches_direct(q5, [request], [second])
