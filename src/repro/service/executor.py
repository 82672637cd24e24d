"""Batch execution core of the diagnosis service.

One *batch* is every coalesced request sharing a compiled topology.  The
coordinator resolves the topology once (through the service's bounded LRU),
then either runs the batch in-process or ships it as **one**
:class:`~repro.parallel.pool.WorkerPool` task: the worker maps the topology
out of shared memory, regenerates each request's syndrome, and diagnoses.
Either way the per-request work is exactly the direct pipeline
(:class:`~repro.core.diagnosis.GeneralDiagnoser` over an
:class:`~repro.backend.array_syndrome.ArraySyndrome`), so responses are
bit-identical to one-off calls; the batch boundary only amortises topology
resolution and process round-trips.

Every batch reports the compile-count delta it caused in its executing
process — the serving layer's zero-per-request-recompilation claim is
asserted from this counter, not assumed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..backend.array_syndrome import ArraySyndrome
from ..core.diagnosis import DiagnosisError, GeneralDiagnoser
from ..core.faults import clustered_faults, random_faults, spread_faults
from ..core.syndrome import FaultyTesterBehavior
from ..networks.registry import FAMILIES, create_network
from .requests import DiagnosisRequest, DiagnosisResponse, syndrome_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.shm import BufferHandle, TopologyHandle

__all__ = [
    "PLACEMENTS",
    "validate_request",
    "resolve_topology",
    "run_batch_local",
    "run_batch_task",
    "run_direct",
]

PLACEMENTS = {
    "random": random_faults,
    "clustered": clustered_faults,
    "spread": spread_faults,
}


def validate_request(request: DiagnosisRequest) -> None:
    """Reject malformed requests before they reach a queue (fail fast)."""
    if request.family not in FAMILIES:
        raise ValueError(
            f"unknown network family {request.family!r}; "
            f"available: {', '.join(sorted(FAMILIES))}"
        )
    if not request.is_explicit:
        if request.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {request.placement!r}; "
                f"choose from {sorted(PLACEMENTS)}"
            )
        if request.behavior not in FaultyTesterBehavior.NAMES:
            raise ValueError(
                f"unknown behavior {request.behavior!r}; "
                f"choose from {FaultyTesterBehavior.NAMES}"
            )
        if request.fault_count is not None and request.fault_count < 1:
            raise ValueError("fault_count must be at least 1 (or None for delta)")


def resolve_topology(family: str, params: dict):
    """Construct and compile one topology (the service LRU's factory).

    Deliberately bypasses the registry memo: the service's bounded cache is
    the *only* topology cache on the serving path, so its eviction policy —
    and the naive baseline's capacity-0 configuration — measure what they
    claim to.

    The entry is returned *warmed*: the Python rows and pair bases are
    materialised here, once per cache entry, never inside a measured batch.
    The stacked kernel's round 1 reads them on every request.  The root
    search's native probes read only the flat CSR arrays and a per-level
    class table, which the first search on a level builds by walking the
    rows and caches on the compiled topology; without the native library
    the scalar probes read the rows and pair bases directly.
    """
    network = create_network(family, **params)
    from ..backend.csr import compile_network

    csr = compile_network(network)
    csr.rows
    csr.pair_base
    return network, csr


def _run_requests(
    network,
    csr,
    requests: Sequence[DiagnosisRequest],
    explicit_views: dict[int, object] | None = None,
) -> tuple[list[DiagnosisResponse], int]:
    """Diagnose one topology group through the stacked kernel.

    Syndrome construction stays per-request (each failure becomes an error
    *response* — a batch shares execution, never fate), then every syndrome
    that constructed runs in **one** ``diagnose_many`` call: the batched
    final ``Set_Builder`` pass whose width is the second return value (the
    post-slicing kernel width the metrics histogram records).  Per-item
    failures inside the kernel (a Theorem-1 violation) come back as
    exception objects and become error responses in place.

    ``explicit_views`` maps request positions to flat ``uint8`` buffer views
    for syndromes shipped out-of-band (shared memory); those requests carry
    no ``syndrome_bytes`` of their own and their views are adopted zero-copy.
    """
    diagnoser = GeneralDiagnoser(network)
    delta = network.diagnosability()
    responses: list[DiagnosisResponse | None] = [None] * len(requests)
    syndromes: list[ArraySyndrome] = []
    slots: list[tuple[int, int | None]] = []  # (position, num_faults_injected)
    for pos, request in enumerate(requests):
        num_injected = None
        try:
            if explicit_views is not None and pos in explicit_views:
                syndrome = ArraySyndrome(csr, explicit_views[pos], copy=False)
            elif request.is_explicit:
                syndrome = ArraySyndrome(csr, request.syndrome_bytes)
            else:
                count = delta if request.fault_count is None else request.fault_count
                faults = PLACEMENTS[request.placement](
                    network, count, seed=request.seed
                )
                num_injected = len(faults)
                syndrome = ArraySyndrome.from_faults(
                    csr, faults, behavior=request.behavior, seed=request.seed
                )
        except (DiagnosisError, ValueError) as exc:
            responses[pos] = DiagnosisResponse(
                topology_key=request.topology_key,
                syndrome_digest="",
                faulty=(),
                healthy_root=None,
                lookups=0,
                num_probes=0,
                partition_level=None,
                num_faults_injected=num_injected,
                error=f"{type(exc).__name__}: {exc}",
            )
            continue
        syndromes.append(syndrome)
        slots.append((pos, num_injected))

    outcomes = diagnoser.diagnose_many(syndromes, include_sets=False)
    for (pos, num_injected), syndrome, outcome in zip(slots, syndromes, outcomes):
        request = requests[pos]
        digest = syndrome_digest(syndrome.buffer)
        if isinstance(outcome, Exception):
            responses[pos] = DiagnosisResponse(
                topology_key=request.topology_key,
                syndrome_digest=digest,
                faulty=(),
                healthy_root=None,
                lookups=syndrome.lookups,
                num_probes=0,
                partition_level=None,
                num_faults_injected=num_injected,
                error=f"{type(outcome).__name__}: {outcome}",
            )
            continue
        responses[pos] = DiagnosisResponse(
            topology_key=request.topology_key,
            syndrome_digest=digest,
            faulty=tuple(sorted(outcome.faulty)),
            healthy_root=outcome.healthy_root,
            lookups=outcome.lookups,
            num_probes=outcome.num_probes,
            partition_level=outcome.partition_level,
            num_faults_injected=num_injected,
        )
    return responses, len(syndromes)


def run_batch_local(
    network, csr, requests: Sequence[DiagnosisRequest]
) -> tuple[list[DiagnosisResponse], dict]:
    """Execute one batch in this process (pre-resolved topology).

    The compile delta covers only the requests themselves (the topology was
    resolved before the measurement starts), mirroring what the pool task
    reports: on the serving path it must be zero.  ``kernel_width`` is the
    stacked kernel's actual batch
    width (requests whose syndrome failed to construct never reach it).
    """
    from ..parallel.pool import compile_delta_probe

    probe = compile_delta_probe()
    responses, width = _run_requests(network, csr, requests)
    stats = probe()
    stats["kernel_width"] = width
    return responses, stats


def run_direct(
    request: DiagnosisRequest, *, network=None, csr=None
) -> DiagnosisResponse:
    """One request through the plain pipeline — the service's reference.

    The differential suite and the loadgen's ``--verify`` mode compare
    served responses against this byte for byte.  Pass ``network``/``csr``
    to reuse an existing instance; otherwise a fresh one is resolved.
    """
    validate_request(request)
    if network is None or csr is None:
        network, csr = resolve_topology(request.family, request.network_kwargs)
    return _run_requests(network, csr, [request])[0][0]


def run_batch_task(
    handle: "TopologyHandle | None",
    family: str,
    params: tuple,
    requests: Sequence[DiagnosisRequest],
    syndrome_handle: "BufferHandle | None" = None,
    syndrome_spans: Sequence[tuple[int, int, int]] = (),
) -> tuple[list[DiagnosisResponse], dict]:
    """Pool-side batch execution: attach the shared topology, then diagnose.

    The worker's network object comes from the registry memo (persistent
    across tasks); its compiled adjacency is the zero-copy shared-memory
    mapping, so the worker never walks the topology (the reported compile
    delta proves it).

    Explicit syndromes travel the same way: the coordinator concatenates
    their buffers into one published segment (``syndrome_handle``) and sends
    ``(position, offset, size)`` spans instead of pickling the bytes per
    task; the worker slices zero-copy views out of its attached mapping.
    """
    from ..parallel.pool import compile_delta_probe, worker_buffer, worker_network

    probe = compile_delta_probe()
    network, csr = worker_network(family, params, handle)
    explicit_views = None
    if syndrome_handle is not None:
        view = worker_buffer(syndrome_handle)
        explicit_views = {
            pos: view[offset:offset + size]
            for pos, offset, size in syndrome_spans
        }
    responses, width = _run_requests(
        network, csr, requests, explicit_views=explicit_views
    )
    stats = probe()
    stats["kernel_width"] = width
    return responses, stats
