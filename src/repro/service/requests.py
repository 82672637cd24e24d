"""Request/response model of the diagnosis service.

A :class:`DiagnosisRequest` names a topology (family + constructor params)
and a syndrome — either *seeded* (a fault placement, count, faulty-tester
behaviour and seed, from which the service regenerates the exact
:class:`~repro.backend.array_syndrome.ArraySyndrome` the direct pipeline
would build) or *explicit* (the raw flat syndrome buffer itself).  Both
forms are plain picklable primitives, so requests cross process boundaries
into :class:`~repro.parallel.pool.WorkerPool` workers unchanged.

Three canonical keys drive the serving layer:

* :func:`topology_key` — what coalescing groups by: requests sharing it run
  against one compiled topology in one batch;
* :func:`syndrome_digest` — SHA-256 of the buffer's canonical form (sparse
  nonzero offsets and values, or the raw bytes when too many are nonzero):
  the content address under which the result store files an answer;
* :func:`request_key` — the duplicate-suppression key: identical requests
  share one in-flight computation and one stored result.

Responses are bit-identical to a direct
:meth:`~repro.core.diagnosis.GeneralDiagnoser.diagnose` call on the same
inputs — the accusation set, healthy root and lookup count all match, which
``tests/differential`` pins across every registry family.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from ..core.faults import PLACEMENTS
from ..core.syndrome import FaultyTesterBehavior
from ..networks.registry import FAMILIES

__all__ = [
    "DEFAULT_TENANT",
    "DIGEST_SCHEMES",
    "DiagnosisRequest",
    "DiagnosisResponse",
    "topology_key",
    "request_key",
    "syndrome_digest",
    "validate_tenant",
    "encode_lease",
    "decode_lease",
    "encode_result",
    "decode_result",
]

#: The tenant a request belongs to when nothing names one — wire bodies,
#: JSONL lines and in-process callers that predate multi-tenancy all land
#: here, so single-tenant deployments keep exactly their old behaviour.
DEFAULT_TENANT = "default"

#: Characters a tenant name may use.  The bound keeps names safe as
#: Prometheus label values, HTTP header values and queue keys without any
#: per-surface escaping beyond the exporter's standard label escaping.
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:@/-"
)
_TENANT_MAX_LENGTH = 64


def validate_tenant(tenant) -> str:
    """Check a tenant name (non-empty, bounded, label-safe); returns it."""
    if not isinstance(tenant, str) or not tenant:
        raise ValueError(
            f"tenant must be a non-empty string, got {tenant!r}"
        )
    if len(tenant) > _TENANT_MAX_LENGTH:
        raise ValueError(
            f"tenant name exceeds {_TENANT_MAX_LENGTH} characters: {tenant!r}"
        )
    bad = set(tenant) - _TENANT_CHARS
    if bad:
        raise ValueError(
            f"tenant {tenant!r} contains forbidden characters {sorted(bad)}; "
            f"allowed: letters, digits and ._:@/-"
        )
    return tenant


def _is_int(value) -> bool:
    # bool is an int subclass; reject it explicitly.
    return isinstance(value, int) and not isinstance(value, bool)


def topology_key(family: str, params) -> str:
    """Canonical ``family[name=value,...]`` key of one compiled topology."""
    items = sorted(dict(params).items())
    inner = ",".join(f"{name}={value}" for name, value in items)
    return f"{family}[{inner}]"


#: The schemes a digest may name.  Each value is ``<scheme>:<hex>``, so no
#: digest can equal a bare-hex one from before the canonical form existed.
DIGEST_SCHEMES = ("sparse-sha256", "dense-sha256")


def _byte_view(buffer) -> np.ndarray:
    """A flat, C-contiguous ``uint8`` view of ``buffer`` (copied only when
    strided, into the order ``bytes(buffer)`` gives)."""
    if isinstance(buffer, np.ndarray) or not memoryview(buffer).c_contiguous:
        return np.ascontiguousarray(buffer).reshape(-1).view(np.uint8)
    return np.frombuffer(buffer, dtype=np.uint8)


def _nonzero_offsets(view: np.ndarray) -> np.ndarray | None:
    """Ascending offsets of the nonzero bytes, or ``None`` if too many.

    The one full-buffer scan of the digest: a byte count picks the body
    (its first eighth alone settles a mostly-nonzero buffer), then a
    word-level pass finds the nonzero ``uint64`` words and only their
    bytes (plus the ``n mod 8`` tail) are examined.  Byte-wise
    ``np.flatnonzero`` over the whole buffer costs more than hashing it.
    """
    n = view.size
    cut = n // 8 + 1
    count = int(np.count_nonzero(view[:cut]))
    if 8 * count > n or 8 * (count + int(np.count_nonzero(view[cut:]))) > n:
        return None
    whole = n - n % 8
    packed = view[:whole].view(np.uint64)
    words = np.flatnonzero(packed != 0)
    lanes = np.flatnonzero(packed[words].view(np.uint8) != 0)
    offsets = words[lanes >> 3] * 8 + (lanes & 7)
    if whole < n:
        offsets = np.concatenate((offsets, np.flatnonzero(view[whole:]) + whole))
    return offsets


def syndrome_digest(buffer, offsets=None, values=None) -> str:
    """Content address of a flat syndrome buffer, over its canonical form.

    The hashed form is a scheme tag, the length ``n`` as ``<u8``, then one
    of two bodies.  With ``k`` nonzero bytes and ``8·k ≤ n`` it is
    ``sparse-sha256``: ``k`` as ``<u8``, the ascending nonzero offsets as
    ``<u8`` and their byte values.  Otherwise it is ``dense-sha256``: the
    raw bytes.  Only the content picks the body, so every buffer type and
    every way of building one syndrome share one digest.

    ``offsets`` are the buffer's ascending nonzero offsets when the caller
    already knows them (a fault-sparse build does); the buffer is then
    never scanned.  Without them it is scanned once
    (:func:`_nonzero_offsets`).  ``values`` are the bytes at ``offsets``:
    with both given, ``buffer`` may be just the length ``n`` — a seeded
    mask-form syndrome hashes what its build recorded and never builds its
    buffer.  A dense body needs the buffer itself.
    """
    if values is None:
        view = _byte_view(buffer)
        n = view.size
        if offsets is None:
            offsets = _nonzero_offsets(view)
        elif 8 * len(offsets) > n:
            offsets = None
        if offsets is None:
            return _dense_digest(view)
        values = view[offsets]
    else:
        n = buffer if isinstance(buffer, int) else _byte_view(buffer).size
        if 8 * len(offsets) > n:
            raise ValueError("a dense digest hashes the buffer, not offsets and values")
    digest = hashlib.sha256(
        b"sparse-sha256\0" + n.to_bytes(8, "little")
        + len(offsets).to_bytes(8, "little")
    )
    digest.update(np.asarray(offsets, dtype="<u8"))
    digest.update(np.ascontiguousarray(values, dtype=np.uint8))
    return f"sparse-sha256:{digest.hexdigest()}"


def _dense_digest(view: np.ndarray) -> str:
    digest = hashlib.sha256(b"dense-sha256\0" + view.size.to_bytes(8, "little"))
    digest.update(view)
    return f"dense-sha256:{digest.hexdigest()}"


def _binary_digest(buffer) -> str:
    """:func:`syndrome_digest` of a buffer of 0/1 bytes (one MM result
    each), else ``ValueError``.  The check rides on the digest's one scan:
    a sparse body gathers every nonzero byte anyway, a dense one needs a
    single ``max``."""
    view = _byte_view(buffer)
    offsets = _nonzero_offsets(view)
    values = view if offsets is None else view[offsets]
    largest = int(values.max(initial=0))
    if largest > 1:
        raise ValueError(
            f"a syndrome holds one 0/1 comparison result per byte; "
            f"found a byte of {largest}"
        )
    if offsets is None:
        return _dense_digest(view)
    return syndrome_digest(view.size, offsets, values)


@dataclass(frozen=True)
class DiagnosisRequest:
    """One diagnosis to perform (picklable primitives only).

    A request that exists is well-formed: every way of building one runs
    :meth:`__post_init__`, which checks each field and raises
    ``ValueError``.  The node cap is the service's limit, not a field
    (:func:`~repro.service.executor.check_topology_size`).

    ``syndrome_bytes`` switches the request to explicit-syndrome form: the
    service diagnoses that exact buffer and the seeded fields
    (``placement``/``fault_count``/``behavior``/``seed``) are ignored.

    ``tenant`` names the client the request is billed to: admission quotas
    and the fair-queueing scheduler account per tenant, and the metrics
    surface labels counters with it.  It is deliberately **not** part of
    :func:`request_key` or :func:`topology_key` — identical work is identical
    work, so two tenants asking the same question still coalesce onto one
    computation and one stored row (neither consumes the other's quota).
    """

    family: str
    params: tuple[tuple[str, int], ...]
    placement: str = "random"
    fault_count: int | None = None  # None -> the network's diagnosability
    behavior: str = "random"
    seed: int = 0
    tenant: str = DEFAULT_TENANT
    syndrome_bytes: bytes | None = field(default=None, repr=False)
    #: :func:`syndrome_digest` of an explicit buffer (``None`` if seeded),
    #: computed by the constructor's byte check; admission, store, executor
    #: and pool reuse it, so the buffer is scanned once.
    digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Placement and behaviour are checked in the explicit form too: the
        # pool path strips a request's bytes, and the rest must stay valid.
        for name, kind, known in (("family", "network family", FAMILIES),
                                  ("placement", "placement", PLACEMENTS),
                                  ("behavior", "behavior", FaultyTesterBehavior.NAMES)):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name!r} must be a string, got {value!r}")
            if value not in known:
                raise ValueError(f"unknown {kind} {value!r}; choose from {sorted(known)}")
        if not isinstance(self.params, tuple) or not all(
            isinstance(pair, tuple) and len(pair) == 2 and isinstance(pair[0], str)
            for pair in self.params
        ):
            raise ValueError(f"'params' must be (name, integer) pairs, got {self.params!r}")
        for name, value in self.params:
            if not _is_int(value):
                raise ValueError(f"param {name!r} must be an integer, got {value!r}")
        count = self.fault_count
        if count is not None and not (_is_int(count) and count >= 1):
            raise ValueError(
                f"'fault_count' must be an integer of at least 1 (or None for "
                f"delta), got {count!r}"
            )
        if not _is_int(self.seed):
            raise ValueError(f"'seed' must be an integer, got {self.seed!r}")
        validate_tenant(self.tenant)
        if self.syndrome_bytes is not None:
            object.__setattr__(self, "digest", _binary_digest(self.syndrome_bytes))

    @classmethod
    def seeded(
        cls,
        family: str,
        params: dict,
        *,
        placement: str = "random",
        fault_count: int | None = None,
        behavior: str = "random",
        seed: int = 0,
        tenant: str = DEFAULT_TENANT,
    ) -> "DiagnosisRequest":
        return cls(
            family=family,
            params=tuple(sorted(params.items())),
            placement=placement,
            fault_count=fault_count,
            behavior=behavior,
            seed=seed,
            tenant=tenant,
        )

    @classmethod
    def from_syndrome(
        cls, family: str, params: dict, syndrome, *, tenant: str = DEFAULT_TENANT
    ) -> "DiagnosisRequest":
        """An explicit-syndrome request from an ``ArraySyndrome`` (or buffer)."""
        buffer = getattr(syndrome, "buffer", syndrome)
        return cls(
            family=family,
            params=tuple(sorted(params.items())),
            syndrome_bytes=bytes(buffer),
            tenant=tenant,
        )

    @classmethod
    def from_dict(
        cls, payload: dict, *, default_tenant: str = DEFAULT_TENANT
    ) -> "DiagnosisRequest":
        """Parse the JSON form used by JSONL files and the HTTP frontend.

        Only the JSON shape is checked here; the constructor checks every
        field.  ``syndrome_hex`` (hex-encoded flat buffer) switches the
        parsed request to explicit-syndrome form, mirroring
        :meth:`from_syndrome`.  ``default_tenant`` is the tenant for bodies
        that name none — the HTTP frontend passes its ``X-Tenant`` header
        here, so a body-level ``tenant`` field always wins over the
        connection-level header.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
        known = {"family", "params", "placement", "fault_count", "behavior",
                 "seed", "tenant", "syndrome_hex"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        if "family" not in payload:
            raise ValueError("request needs a 'family' field")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object of name -> integer")
        tenant = payload.get("tenant", default_tenant)
        if payload.get("syndrome_hex") is not None:
            seeded_only = {"placement", "fault_count", "behavior", "seed"} & set(payload)
            if seeded_only:
                raise ValueError(
                    f"syndrome_hex is an explicit syndrome; it cannot combine "
                    f"with seeded fields {sorted(seeded_only)}"
                )
            try:
                buffer = bytes.fromhex(payload["syndrome_hex"])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad syndrome_hex: {exc}")
            return cls.from_syndrome(payload["family"], params, buffer, tenant=tenant)
        return cls.seeded(
            payload["family"],
            params,
            placement=payload.get("placement", "random"),
            fault_count=payload.get("fault_count"),
            behavior=payload.get("behavior", "random"),
            seed=payload.get("seed", 0),
            tenant=tenant,
        )

    def to_wire(self) -> dict:
        """The JSON object :meth:`from_dict` parses back (HTTP request body).

        The default tenant is omitted, keeping single-tenant wire bodies
        byte-identical to their pre-tenancy form.
        """
        if self.is_explicit:
            record = {
                "family": self.family,
                "params": dict(self.params),
                "syndrome_hex": self.syndrome_bytes.hex(),
            }
        else:
            record = {
                "family": self.family,
                "params": dict(self.params),
                "placement": self.placement,
                "fault_count": self.fault_count,
                "behavior": self.behavior,
                "seed": self.seed,
            }
        if self.tenant != DEFAULT_TENANT:
            record["tenant"] = self.tenant
        return record

    # ------------------------------------------------------------------- keys
    @property
    def network_kwargs(self) -> dict[str, int]:
        return dict(self.params)

    @cached_property
    def topology_key(self) -> str:
        """:func:`topology_key` of the request's topology, computed once."""
        return topology_key(self.family, self.params)

    @property
    def is_explicit(self) -> bool:
        return self.syndrome_bytes is not None

    @cached_property
    def key(self) -> str:
        """Duplicate-suppression key (see :func:`request_key`), computed
        once and kept on the request like :attr:`digest`."""
        return request_key(self)

    def describe(self) -> str:
        prefix = "" if self.tenant == DEFAULT_TENANT else f"[{self.tenant}] "
        if self.is_explicit:
            scheme, _, hexdigest = self.digest.partition(":")
            return (f"{prefix}{self.topology_key} "
                    f"syndrome@{scheme}:{hexdigest[:12]}")
        count = "delta" if self.fault_count is None else str(self.fault_count)
        return (f"{prefix}{self.topology_key} {self.placement}/{count} "
                f"{self.behavior} seed={self.seed}")


def request_key(request: DiagnosisRequest) -> str:
    """The key under which identical requests coalesce and dedup.

    Seeded requests key on their generation parameters (no topology work
    needed to recognise a repeat); explicit-syndrome requests key on the
    content digest of their buffer, whose prefix names its scheme.  The
    tenant is deliberately absent: dedup is about the *work*, and a
    cross-tenant store hit or coalesced join consumes no queue slot from
    either tenant.
    """
    if request.is_explicit:
        return f"{request.topology_key}|{request.digest}"
    return (f"{request.topology_key}|{request.placement}|{request.fault_count}"
            f"|{request.behavior}|{request.seed}")


@dataclass(frozen=True)
class DiagnosisResponse:
    """Outcome of one served request (picklable / JSON-serialisable).

    ``source`` records how the answer was produced: ``"computed"`` (ran in a
    batch), ``"store"`` (served from the persistent result store) or
    ``"coalesced"`` (shared an in-flight computation with an identical
    concurrent request).  ``error`` carries the stringified
    :class:`~repro.core.diagnosis.DiagnosisError` when the instance violates
    Theorem 1's hypotheses — exactly when the direct pipeline raises.
    """

    topology_key: str
    syndrome_digest: str
    faulty: tuple[int, ...]
    healthy_root: int | None
    lookups: int
    num_probes: int
    partition_level: int | None
    num_faults_injected: int | None = None
    error: str | None = None
    source: str = "computed"
    batch_size: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def faulty_set(self) -> frozenset[int]:
        return frozenset(self.faulty)

    # ------------------------------------------------------------ store codec
    def to_payload(self) -> str:
        """JSON payload stored under ``(topology_key, syndrome_digest)``."""
        # Store only what re-serving needs; source/batch/latency are per-serve.
        record = {name: getattr(self, name) for name in _STORED_FIELDS}
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: str) -> "DiagnosisResponse":
        record = json.loads(payload)
        record["faulty"] = tuple(record["faulty"])
        return cls(source="store", **record)

    # ------------------------------------------------------------- wire codec
    def to_wire(self) -> dict:
        """The full JSON object the HTTP frontend returns (all fields).

        Read field by field: every value is immutable, so the deep copy
        ``dataclasses.asdict`` makes would only cost time.
        """
        return {name: getattr(self, name) for name in _RESPONSE_FIELDS}

    @classmethod
    def from_wire(cls, record: dict) -> "DiagnosisResponse":
        """Parse an HTTP response body back into a response object."""
        record = dict(record)
        record["faulty"] = tuple(record["faulty"])
        return cls(**record)


#: Field names in declaration order: the key order of both codecs.
_RESPONSE_FIELDS = tuple(f.name for f in fields(DiagnosisResponse))
_STORED_FIELDS = tuple(
    name for name in _RESPONSE_FIELDS
    if name not in ("source", "batch_size", "elapsed_seconds")
)

# --------------------------------------------------------------- fabric frames
# The worker fabric's data-plane frames reuse the wire codecs above: a *lease*
# ships one coalesced batch to a remote worker, a *result* brings the batch's
# responses (plus the executing process's compile-count evidence) back.
# Lease ids are coordinator-assigned and stable across retries, so a late or
# duplicated result still names the lease it answers and the coordinator can
# dedup completions; the payloads themselves are exactly the HTTP wire form,
# which is what keeps fabric responses bit-identical to direct serving.

def encode_lease(lease_id: int, requests: "list[DiagnosisRequest]") -> dict:
    """The ``lease`` frame body dispatching one batch to a worker."""
    return {
        "kind": "lease",
        "lease": int(lease_id),
        "requests": [request.to_wire() for request in requests],
    }


def decode_lease(frame: dict) -> tuple[int, "list[DiagnosisRequest]"]:
    """Parse (and validate) a ``lease`` frame; ``(lease_id, requests)``."""
    if frame.get("kind") != "lease":
        raise ValueError(f"not a lease frame: kind={frame.get('kind')!r}")
    lease_id = frame.get("lease")
    if not isinstance(lease_id, int) or isinstance(lease_id, bool):
        raise ValueError(f"lease id must be an integer, got {lease_id!r}")
    bodies = frame.get("requests")
    if not isinstance(bodies, list) or not bodies:
        raise ValueError("lease frame needs a non-empty 'requests' list")
    requests = []
    for position, body in enumerate(bodies):
        try:
            requests.append(DiagnosisRequest.from_dict(body))
        except ValueError as exc:
            raise ValueError(f"lease requests[{position}]: {exc}") from None
    return lease_id, requests


#: Batch-execution statistics a result frame must carry (the serving layer's
#: zero-recompilation evidence travels the fabric too).
_RESULT_STATS = ("compiles", "kernel_width")


def encode_result(
    lease_id: int, responses: "list[DiagnosisResponse]", stats: dict
) -> dict:
    """The ``result`` frame body answering one lease."""
    return {
        "kind": "result",
        "lease": int(lease_id),
        "responses": [response.to_wire() for response in responses],
        "stats": {name: int(stats[name]) for name in _RESULT_STATS},
    }


def decode_result(frame: dict) -> tuple[int, "list[DiagnosisResponse]", dict]:
    """Parse a ``result`` frame; ``(lease_id, responses, stats)``."""
    if frame.get("kind") != "result":
        raise ValueError(f"not a result frame: kind={frame.get('kind')!r}")
    lease_id = frame.get("lease")
    if not isinstance(lease_id, int) or isinstance(lease_id, bool):
        raise ValueError(f"lease id must be an integer, got {lease_id!r}")
    bodies = frame.get("responses")
    if not isinstance(bodies, list):
        raise ValueError("result frame needs a 'responses' list")
    responses = []
    for position, body in enumerate(bodies):
        try:
            responses.append(DiagnosisResponse.from_wire(body))
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"result responses[{position}]: {exc}") from None
    raw_stats = frame.get("stats")
    if not isinstance(raw_stats, dict):
        raise ValueError("result frame needs a 'stats' object")
    try:
        stats = {name: int(raw_stats[name]) for name in _RESULT_STATS}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"result stats: {exc!r}") from None
    return lease_id, responses, stats
