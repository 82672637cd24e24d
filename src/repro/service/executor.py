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
from ..backend.csr import compile_delta_probe, compile_network
from ..core.diagnosis import DiagnosisError, GeneralDiagnoser
from ..core.faults import PLACEMENTS
from ..networks.registry import FAMILIES, create_network
from .requests import DiagnosisRequest, DiagnosisResponse, syndrome_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.shm import BufferHandle, TopologyHandle

__all__ = [
    "MAX_TOPOLOGY_NODES",
    "MAX_TOPOLOGY_SLOTS",
    "PLACEMENTS",
    "check_topology_size",
    "resolve_topology",
    "run_batch_local",
    "run_batch_task",
    "run_direct",
]


#: Largest topology this service builds.  Resolving one runs on the
#: service's execution slot, so a bigger one would stall all serving while
#: it builds (Q_16 takes about 0.5 s and 100 MB; S_10 or Q_22 take tens of
#: seconds and gigabytes).  The largest topology served here is Q_14.
MAX_TOPOLOGY_NODES = 1 << 16

#: Most comparison pairs (n·Δ(Δ-1)/2 slots, one syndrome byte each) a
#: topology may have.  The node cap alone admits dense graphs: the
#: arrangement graph A_{65536,1} is K_65536, with 1.4·10^14 slots.  This
#: bound is about twice Q_16's 7.9·10^6 slots, the cost the node cap was
#: sized by: it admits a 2^16-node topology of degree up to 23 (Q_16 and
#: its degree-17 variants FQ_16 and Q_{16,k}), and Q_14 (1.5·10^6 slots)
#: and S_7 (7.6·10^4) are far inside it.
MAX_TOPOLOGY_SLOTS = 1 << 24


def check_topology_size(family: str, params: dict) -> None:
    """Refuse a topology over :data:`MAX_TOPOLOGY_NODES` nodes or
    :data:`MAX_TOPOLOGY_SLOTS` comparison pairs, building nothing.

    Admission and :func:`resolve_topology` both call it.  It reads the
    family's node-count and degree formulas, which accept every parameter
    set the constructor accepts; an unknown family or parameter name
    passes, and the constructor reports it.
    """
    spec = FAMILIES.get(family)
    if spec is None:
        return
    try:
        nodes = spec.node_count(**params)
        if nodes > MAX_TOPOLOGY_NODES:
            raise ValueError(
                f"this {family} instance has more than "
                f"{MAX_TOPOLOGY_NODES} nodes, the most this service builds"
            )
        degree = spec.degree(**params)
    except TypeError:
        return
    if nodes * degree * (degree - 1) // 2 > MAX_TOPOLOGY_SLOTS:
        raise ValueError(
            f"this {family} instance has more than {MAX_TOPOLOGY_SLOTS} "
            "comparison pairs, the most this service builds"
        )


def resolve_topology(family: str, params: dict):
    """Construct and compile one topology (the service LRU's factory).

    An oversized one is refused first, so a fabric worker serving a lease
    stops at the service's cap too.  Deliberately bypasses the registry
    memo: the service's bounded cache is the *only* topology cache on the
    serving path, so its eviction policy — and its capacity-0
    configuration (``serve --cache-capacity 0``) — do what they claim to.

    The entry is returned *warmed*: the pair bases, which every seeded
    build reads, are materialised here, once per cache entry, never inside
    a measured batch.  The native kernels read only the flat CSR arrays,
    and the root search's per-level class tables are built from them by
    the first search that reaches a level and cached on the compiled
    topology.  The Python rows (:attr:`CSRAdjacency.rows`) are left
    unbuilt: only native-off runs read them, and they build them on first
    use.
    """
    check_topology_size(family, params)
    network = create_network(family, **params)
    csr = compile_network(network)
    csr.pair_base
    return network, csr


def _error_response(request, exc, *, digest="", lookups=0, num_injected=None):
    return DiagnosisResponse(
        topology_key=request.topology_key,
        syndrome_digest=digest,
        faulty=(),
        healthy_root=None,
        lookups=lookups,
        num_probes=0,
        partition_level=None,
        num_faults_injected=num_injected,
        error=f"{type(exc).__name__}: {exc}",
    )


def _run_requests(
    network,
    csr,
    requests: Sequence[DiagnosisRequest],
    explicit_views: dict[int, tuple[object, str]] | None = None,
) -> tuple[list[DiagnosisResponse], int]:
    """Diagnose one topology group through the stacked kernel.

    Diagnoser and syndrome construction stay per-request (each failure
    becomes an error *response* — a batch shares execution, never fate),
    then every syndrome that constructed runs in **one** ``diagnose_many``
    call: the batched final ``Set_Builder`` pass whose width is the second
    return value (the post-slicing kernel width the metrics histogram
    records).  Per-item failures inside the kernel (a Theorem-1 violation)
    come back as exception objects and become error responses in place.

    ``explicit_views`` maps request positions to ``(view, digest)`` pairs
    for syndromes shipped out-of-band (shared memory): a flat ``uint8``
    buffer view, adopted zero-copy, and the digest the coordinator already
    computed.  Those requests carry no ``syndrome_bytes`` of their own.

    Each response's digest is computed at most once per process: an
    explicit request reuses the one it was keyed by, a seeded build hands
    its recorded nonzero offsets and values to :func:`syndrome_digest`, so
    with the native kernels a seeded syndrome's buffer is never built.
    """
    try:
        diagnoser = GeneralDiagnoser(network)
    except (DiagnosisError, ValueError) as exc:
        return [_error_response(request, exc) for request in requests], 0
    responses: list[DiagnosisResponse | None] = [None] * len(requests)
    syndromes: list[ArraySyndrome] = []
    # (position, num_faults_injected, digest when already known)
    slots: list[tuple[int, int | None, str | None]] = []
    for pos, request in enumerate(requests):
        num_injected = None
        digest = None
        try:
            if explicit_views is not None and pos in explicit_views:
                view, digest = explicit_views[pos]
                syndrome = ArraySyndrome(csr, view, copy=False)
            elif request.is_explicit:
                syndrome = ArraySyndrome(csr, request.syndrome_bytes)
                digest = request.digest
            else:
                count = (diagnoser.delta if request.fault_count is None
                         else request.fault_count)
                faults = PLACEMENTS[request.placement](
                    network, count, seed=request.seed
                )
                num_injected = len(faults)
                syndrome = ArraySyndrome.from_faults(
                    csr, faults, behavior=request.behavior, seed=request.seed
                )
        except (DiagnosisError, ValueError) as exc:
            responses[pos] = _error_response(request, exc, num_injected=num_injected)
            continue
        syndromes.append(syndrome)
        slots.append((pos, num_injected, digest))

    outcomes = diagnoser.diagnose_many(syndromes)
    for (pos, num_injected, digest), syndrome, outcome in zip(
        slots, syndromes, outcomes
    ):
        request = requests[pos]
        if digest is None:
            digest = syndrome_digest(*syndrome.digest_source)
        if isinstance(outcome, Exception):
            responses[pos] = _error_response(
                request, outcome, digest=digest, lookups=syndrome.lookups,
                num_injected=num_injected,
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
    if network is None or csr is None:
        network, csr = resolve_topology(request.family, request.network_kwargs)
    return _run_requests(network, csr, [request])[0][0]


def run_batch_task(
    handle: "TopologyHandle",
    family: str,
    params: tuple,
    requests: Sequence[DiagnosisRequest],
    syndrome_handle: "BufferHandle | None" = None,
    syndrome_spans: Sequence[tuple[int, int, int, str]] = (),
) -> tuple[list[DiagnosisResponse], dict]:
    """Pool-side batch execution: attach the shared topology, then diagnose.

    The worker's network object comes from the registry memo (persistent
    across tasks); its compiled adjacency is the zero-copy shared-memory
    mapping, so the worker never walks the topology (the reported compile
    delta proves it).

    Explicit syndromes travel the same way: the coordinator lays their
    buffers end to end in one of its reused staging segments
    (``syndrome_handle``) and sends ``(position, offset, size, digest)``
    spans instead of pickling the bytes per task; the worker slices
    zero-copy views out of its cached mapping and reuses the coordinator's
    digests, never rescanning them.
    """
    from ..parallel.pool import worker_buffer, worker_network

    probe = compile_delta_probe()
    network, csr = worker_network(family, params, handle)
    explicit_views = None
    if syndrome_handle is not None:
        view = worker_buffer(syndrome_handle)
        explicit_views = {
            pos: (view[offset:offset + size], digest)
            for pos, offset, size, digest in syndrome_spans
        }
    responses, width = _run_requests(
        network, csr, requests, explicit_views=explicit_views
    )
    stats = probe()
    stats["kernel_width"] = width
    return responses, stats
