"""Seeded closed-loop load generation for the diagnosis service.

``N`` simulated clients each issue ``M`` requests back to back (closed loop:
a client waits for its answer before sending the next), drawing topologies
and syndrome seeds from a deterministic per-client stream — the same
``SeedSequence``-spawned derivation the sweep layer uses, so a load run is
reproducible request for request at any concurrency.  A bounded seed pool
makes repeats a *feature*: the same ``(topology, seed)`` pair recurring
across clients is exactly what exercises in-flight coalescing and the
persistent result store.

:func:`run_load` drives an existing service; :func:`run_load_sync` is the
one-call form the CLI uses, building the service (optionally pooled and
store-backed), running the load under ``asyncio.run`` and returning the
:class:`LoadReport`.

:func:`run_fairness` is the adversarial multi-tenant harness: one *hot*
tenant fires its whole burst open-loop (no waiting, no retrying) against a
per-tenant admission quota, while several *cold* tenants trickle closed-loop
requests through the same service.  Because admission decisions happen in
``submit``'s synchronous prefix, the hot burst's shed split is a pure
function of submission order — :meth:`FairnessReport.split` is the
byte-comparable fingerprint two seeded runs must agree on — and every cold
request (per-tenant depth 1, under any quota) completes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..parallel.seeding import spawn_seeds
from .requests import DEFAULT_TENANT, DiagnosisRequest, DiagnosisResponse, validate_tenant
from .service import DiagnosisService, RejectedError

__all__ = [
    "LoadSpec",
    "LoadReport",
    "FairnessSpec",
    "FairnessReport",
    "build_client_streams",
    "run_load",
    "run_load_http",
    "run_load_http_sync",
    "run_load_sync",
    "run_fairness",
    "run_fairness_sync",
]

#: The benchmark's default request mix (the acceptance workload): two
#: hypercube sizes and a permutation network, so batches of different
#: shapes interleave.
DEFAULT_MIX: tuple[tuple[str, dict], ...] = (
    ("hypercube", {"dimension": 12}),
    ("hypercube", {"dimension": 14}),
    ("star", {"n": 7}),
)


@dataclass(frozen=True)
class LoadSpec:
    """One load scenario (deterministic given its seed)."""

    instances: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    clients: int = 4
    requests_per_client: int = 8
    seed: int = 0
    seed_pool: int = 8  # distinct syndrome seeds per topology (repeats exercise dedup)
    placement: str = "random"
    behavior: str = "random"
    fault_count: int | None = None
    tenant: str = DEFAULT_TENANT  # every generated request bills to this tenant

    @classmethod
    def from_mix(
        cls,
        mix=DEFAULT_MIX,
        *,
        clients: int = 4,
        requests_per_client: int = 8,
        seed: int = 0,
        seed_pool: int = 8,
        placement: str = "random",
        behavior: str = "random",
        fault_count: int | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> "LoadSpec":
        if clients < 1:
            raise ValueError("clients must be at least 1")
        if requests_per_client < 1:
            raise ValueError("requests must be at least 1")
        if seed_pool < 1:
            raise ValueError("seed_pool must be at least 1")
        instances = tuple(
            (family, tuple(sorted(dict(params).items()))) for family, params in mix
        )
        if not instances:
            raise ValueError("the request mix must name at least one instance")
        return cls(
            instances=instances,
            clients=clients,
            requests_per_client=requests_per_client,
            seed=seed,
            seed_pool=seed_pool,
            placement=placement,
            behavior=behavior,
            fault_count=fault_count,
            tenant=validate_tenant(tenant),
        )


def build_client_streams(spec: LoadSpec) -> list[list[DiagnosisRequest]]:
    """Every client's request sequence (deterministic, client-count stable).

    Client ``i``'s stream derives from ``spawn_seeds(spec.seed)[i]``, so
    adding clients never reshuffles existing ones.
    """
    streams: list[list[DiagnosisRequest]] = []
    for client_seed in spawn_seeds(spec.seed, spec.clients):
        rng = np.random.default_rng(client_seed)
        stream = []
        for _ in range(spec.requests_per_client):
            family, params = spec.instances[int(rng.integers(len(spec.instances)))]
            stream.append(
                DiagnosisRequest(
                    family=family,
                    params=params,
                    placement=spec.placement,
                    fault_count=spec.fault_count,
                    behavior=spec.behavior,
                    seed=int(rng.integers(spec.seed_pool)),
                    tenant=spec.tenant,
                )
            )
        streams.append(stream)
    return streams


@dataclass
class LoadReport:
    """Outcome of one load run."""

    clients: int
    requests: int
    wall_seconds: float
    responses: list[DiagnosisResponse] = field(repr=False, default_factory=list)
    stats: dict = field(default_factory=dict)
    mismatches: int = 0  # populated by verified runs only
    rejections: int = 0  # 429s absorbed by the HTTP transport's retry loop

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def errors(self) -> int:
        return sum(1 for response in self.responses if not response.ok)

    def source_counts(self) -> dict[str, int]:
        counts = {"computed": 0, "store": 0, "coalesced": 0}
        for response in self.responses:
            counts[response.source] += 1
        return counts

    def summary(self) -> dict:
        """The JSON block the CLI prints and the benchmark records."""
        return {
            "clients": self.clients,
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "sources": self.source_counts(),
            "errors": self.errors,
            "mismatches": self.mismatches,
            "rejections": self.rejections,
            "stats": self.stats,
        }


async def run_load(service: DiagnosisService, spec: LoadSpec) -> LoadReport:
    """Drive ``spec`` against an existing service (closed-loop clients)."""
    streams = build_client_streams(spec)
    start = time.perf_counter()
    per_client = await asyncio.gather(
        *(service.serve_sequence(stream) for stream in streams)
    )
    wall = time.perf_counter() - start
    responses = [response for client in per_client for response in client]
    return LoadReport(
        clients=spec.clients,
        requests=len(responses),
        wall_seconds=wall,
        responses=responses,
        stats=service.stats(),
    )


async def run_load_http(
    spec: LoadSpec,
    host: str,
    port: int,
    *,
    retry_delay: float = 0.05,
    max_retries: int = 400,
) -> LoadReport:
    """Drive ``spec`` over the wire against a running HTTP frontend.

    Each closed-loop client holds one keep-alive connection — the natural
    HTTP shape of "a client".  A request shed with 429 is counted, backed
    off (``retry_delay``), and retried until admitted, so the report's
    responses stay position-aligned with :func:`build_client_streams` and
    ``--verify`` parity checks run unchanged over the real wire path.
    """
    from .http import HttpClient, HttpError

    streams = build_client_streams(spec)
    rejections = 0

    async def drive(stream: list[DiagnosisRequest]) -> list[DiagnosisResponse]:
        nonlocal rejections
        responses = []
        async with HttpClient(host, port) as client:
            for request in stream:
                for _attempt in range(max_retries):
                    status, outcome = await client.diagnose(request)
                    if status == 200:
                        responses.append(outcome)
                        break
                    if status == 429:
                        rejections += 1
                        await asyncio.sleep(retry_delay)
                        continue
                    raise HttpError(
                        status, f"{request.describe()} answered {status}: {outcome}"
                    )
                else:
                    raise HttpError(
                        429,
                        f"{request.describe()} still shed after "
                        f"{max_retries} retries",
                    )
        return responses

    start = time.perf_counter()
    per_client = await asyncio.gather(*(drive(stream) for stream in streams))
    wall = time.perf_counter() - start
    async with HttpClient(host, port) as client:
        stats = await client.stats()
    responses = [response for client_responses in per_client
                 for response in client_responses]
    return LoadReport(
        clients=spec.clients,
        requests=len(responses),
        wall_seconds=wall,
        responses=responses,
        stats=stats,
        rejections=rejections,
    )


def run_load_http_sync(
    spec: LoadSpec,
    target: str,
    *,
    verify: bool = False,
    retry_delay: float = 0.05,
) -> LoadReport:
    """One-call HTTP load run against ``target`` (``http://host:port``)."""
    from .http import parse_http_target

    host, port = parse_http_target(target)
    report = asyncio.run(run_load_http(spec, host, port, retry_delay=retry_delay))
    if verify:
        verify_against_direct(spec, report)
    return report


def verify_against_direct(spec: LoadSpec, report: LoadReport) -> int:
    """Check every served answer against the plain pipeline.

    Distinct requests are verified once (the stream repeats by design);
    returns — and records on the report — the number of mismatching
    responses.  A mismatch means the serving layer changed an answer, which
    the differential suite treats as a hard failure.
    """
    from .executor import resolve_topology, run_direct

    expected: dict[str, DiagnosisResponse] = {}
    topologies: dict[str, tuple] = {}
    requests = [r for stream in build_client_streams(spec) for r in stream]
    mismatches = 0
    for request, response in zip(requests, report.responses):
        key = request.key
        if key not in expected:
            topo = request.topology_key
            if topo not in topologies:
                topologies[topo] = resolve_topology(
                    request.family, request.network_kwargs
                )
            network, csr = topologies[topo]
            expected[key] = run_direct(request, network=network, csr=csr)
        reference = expected[key]
        if (response.faulty, response.healthy_root, response.lookups,
                response.error) != (
                reference.faulty, reference.healthy_root, reference.lookups,
                reference.error):
            mismatches += 1
    report.mismatches = mismatches
    return mismatches


def run_load_sync(
    spec: LoadSpec,
    *,
    pool=None,
    store=None,
    verify: bool = False,
) -> LoadReport:
    """Build a service for ``spec``, run the load, and return the report."""
    service = DiagnosisService(pool=pool, store=store)

    async def _run() -> LoadReport:
        async with service:
            return await run_load(service, spec)

    report = asyncio.run(_run())
    if verify:
        verify_against_direct(spec, report)
    return report


# --------------------------------------------------------------------------
# Adversarial multi-tenant fairness harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FairnessSpec:
    """One hot tenant's open-loop burst vs many cold closed-loop tenants.

    The hot tenant submits ``hot_requests`` all at once and never retries a
    shed; each of ``cold_tenants`` cold tenants runs a closed-loop stream of
    ``cold_requests_per_tenant`` requests.  ``max_queue_per_tenant`` is the
    quota the burst slams into.  The whole burst is submitted in one loop
    tick, and a dispatcher yields a tick before it forms a batch, so every
    burst request meets admission control before any dispatch frees a
    slot — that is what makes the shed split a pure function of submission
    order.
    """

    instances: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    hot_tenant: str = "hot"
    cold_tenants: int = 4
    hot_requests: int = 32
    cold_requests_per_tenant: int = 4
    max_queue_per_tenant: int = 4
    tenant_weights: tuple[tuple[str, int], ...] = ()
    seed: int = 0
    seed_pool: int = 8
    max_batch_size: int = 8

    @classmethod
    def from_mix(
        cls,
        mix=DEFAULT_MIX,
        *,
        hot_tenant: str = "hot",
        cold_tenants: int = 4,
        hot_requests: int = 32,
        cold_requests_per_tenant: int = 4,
        max_queue_per_tenant: int = 4,
        tenant_weights: dict[str, int] | None = None,
        seed: int = 0,
        seed_pool: int = 8,
        max_batch_size: int = 8,
    ) -> "FairnessSpec":
        if cold_tenants < 1:
            raise ValueError("cold_tenants must be at least 1")
        if hot_requests < 1 or cold_requests_per_tenant < 1:
            raise ValueError("request counts must be at least 1")
        if max_queue_per_tenant < 1:
            raise ValueError("max_queue_per_tenant must be at least 1")
        instances = tuple(
            (family, tuple(sorted(dict(params).items()))) for family, params in mix
        )
        if not instances:
            raise ValueError("the request mix must name at least one instance")
        return cls(
            instances=instances,
            hot_tenant=validate_tenant(hot_tenant),
            cold_tenants=cold_tenants,
            hot_requests=hot_requests,
            cold_requests_per_tenant=cold_requests_per_tenant,
            max_queue_per_tenant=max_queue_per_tenant,
            tenant_weights=tuple(sorted((tenant_weights or {}).items())),
            seed=seed,
            seed_pool=seed_pool,
            max_batch_size=max_batch_size,
        )

    def cold_tenant(self, index: int) -> str:
        return f"cold-{index:02d}"

    def streams(self) -> tuple[list[DiagnosisRequest], list[list[DiagnosisRequest]]]:
        """``(hot burst, cold streams)`` — deterministic given the seed.

        Client 0 of the underlying derivation is the hot tenant; clients
        ``1..cold_tenants`` are the cold tenants, so the request content
        never depends on how many tenants compete.
        """
        base = LoadSpec(
            instances=self.instances,
            clients=1 + self.cold_tenants,
            requests_per_client=max(
                self.hot_requests, self.cold_requests_per_tenant
            ),
            seed=self.seed,
            seed_pool=self.seed_pool,
        )
        raw = build_client_streams(base)
        hot = [
            replace(request, tenant=self.hot_tenant)
            for request in raw[0][: self.hot_requests]
        ]
        cold = [
            [
                replace(request, tenant=self.cold_tenant(index))
                for request in stream[: self.cold_requests_per_tenant]
            ]
            for index, stream in enumerate(raw[1:])
        ]
        return hot, cold


@dataclass
class FairnessReport:
    """Outcome of one adversarial fairness run."""

    spec: FairnessSpec = field(repr=False, default=None)
    hot_served: int = 0
    hot_shed_indices: tuple[int, ...] = ()
    cold_served: dict[str, int] = field(default_factory=dict)
    cold_expected: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    stats: dict = field(default_factory=dict, repr=False)

    @property
    def hot_shed(self) -> int:
        return len(self.hot_shed_indices)

    @property
    def cold_completion(self) -> float:
        """Fraction of cold requests that completed (the headline number)."""
        expected = sum(self.cold_expected.values())
        return sum(self.cold_served.values()) / expected if expected else 1.0

    def split(self) -> dict:
        """The deterministic fingerprint of the run.

        Only submission-order facts appear here — which hot indices were
        shed, and how many requests each tenant got served — never timing or
        response sources, so two runs of the same spec must produce
        byte-identical ``json.dumps(report.split(), sort_keys=True)``.
        """
        return {
            "hot_tenant": self.spec.hot_tenant,
            "hot_requests": self.spec.hot_requests,
            "hot_served": self.hot_served,
            "hot_shed_indices": list(self.hot_shed_indices),
            "cold_served": dict(sorted(self.cold_served.items())),
        }

    def summary(self) -> dict:
        """The JSON block the CLI prints and the benchmark records."""
        return {
            "hot_tenant": self.spec.hot_tenant,
            "hot_requests": self.spec.hot_requests,
            "hot_served": self.hot_served,
            "hot_shed": self.hot_shed,
            "cold_tenants": self.spec.cold_tenants,
            "cold_requests": sum(self.cold_expected.values()),
            "cold_completion": self.cold_completion,
            "max_queue_per_tenant": self.spec.max_queue_per_tenant,
            "wall_seconds": round(self.wall_seconds, 3),
        }


async def run_fairness(spec: FairnessSpec) -> FairnessReport:
    """Run the adversarial mix on a fresh service; see :class:`FairnessSpec`.

    The hot burst's submissions are scheduled (in order) before any cold
    submission, so its shed split depends only on the spec.
    """
    hot_stream, cold_streams = spec.streams()
    service = DiagnosisService(
        max_batch_size=spec.max_batch_size,
        max_queue_per_tenant=spec.max_queue_per_tenant,
        tenant_weights=dict(spec.tenant_weights) or None,
    )
    async with service:
        start = time.perf_counter()
        hot_burst = asyncio.gather(
            *(service.submit(request) for request in hot_stream),
            return_exceptions=True,
        )
        cold_runs = asyncio.gather(
            *(service.serve_sequence(stream) for stream in cold_streams)
        )
        hot_outcomes, cold_outcomes = await asyncio.gather(hot_burst, cold_runs)
        wall = time.perf_counter() - start

        shed = []
        served = 0
        for index, outcome in enumerate(hot_outcomes):
            if isinstance(outcome, RejectedError):
                shed.append(index)
            elif isinstance(outcome, DiagnosisResponse):
                served += 1
            else:
                raise outcome  # a bug, not an admission decision
        report = FairnessReport(
            spec=spec,
            hot_served=served,
            hot_shed_indices=tuple(shed),
            cold_served={
                spec.cold_tenant(index): len(responses)
                for index, responses in enumerate(cold_outcomes)
            },
            cold_expected={
                spec.cold_tenant(index): len(stream)
                for index, stream in enumerate(cold_streams)
            },
            wall_seconds=wall,
            stats=service.stats(),
        )
    return report


def run_fairness_sync(spec: FairnessSpec) -> FairnessReport:
    """One-call form of :func:`run_fairness` (``asyncio.run`` wrapper)."""
    return asyncio.run(run_fairness(spec))
