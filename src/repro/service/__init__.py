"""`repro.service` — the serving layer: batched, coalesced, cached diagnosis.

Below this package, :meth:`~repro.core.diagnosis.GeneralDiagnoser.diagnose_many`
already runs a whole batch of syndromes as one stacked kernel pass; this
subsystem forms those batches from *streams* of requests and files their
answers:

* :mod:`~repro.service.requests` — :class:`DiagnosisRequest` /
  :class:`DiagnosisResponse`, plus the canonical topology / request keys and
  the syndrome content digest;
* :mod:`~repro.service.cache` — the bounded :class:`LRUCache` (hit / miss /
  eviction counters) used for the service's compiled-topology cache and for
  the network registry's instance memo;
* :mod:`~repro.service.store` — :class:`ResultStore`, a content-addressed
  SQLite store keyed by ``(topology key, syndrome digest)`` so repeated
  requests are served from disk;
* :mod:`~repro.service.metrics` — latency / batch-size histograms, counters
  and queue-depth tracking behind the ``stats`` endpoint;
* :mod:`~repro.service.executor` — the batch execution core shared by the
  in-process path and the :class:`~repro.parallel.pool.WorkerPool` task;
* :mod:`~repro.service.service` — :class:`DiagnosisService`, the asyncio
  front end that coalesces concurrent requests per compiled topology into
  batched runs;
* :mod:`~repro.service.fairqueue` — :class:`TenantQueues`, the per-tenant
  deficit-round-robin scheduler behind multi-tenant fairness;
* :mod:`~repro.service.http` — the stdlib-only asyncio HTTP/1.1 frontend
  (``POST /diagnose``, ``GET /stats``, ``GET /metrics``, ``GET /dashboard``,
  ``GET /healthz``, graceful drain, 429 shedding) plus the matching
  keep-alive client;
* :mod:`~repro.service.prometheus` — the Prometheus text-format exporter
  and its minimal parser/checker;
* :mod:`~repro.service.dashboard` — the stdlib-rendered HTML operator
  dashboard over ``/stats``;
* :mod:`~repro.service.loadgen` — the seeded closed-loop load generator
  behind ``repro load``, with an HTTP
  transport (``run_load_http_sync``) exercising the real wire path and a
  fairness harness (``run_fairness_sync``) pitting a saturating tenant
  against cold ones.

Attribute access is lazy (PEP 562): :mod:`repro.networks.registry` imports
:mod:`repro.service.cache` for its memo, and an eager ``__init__`` here would
re-enter the registry through :mod:`~repro.service.service` mid-import.
"""

from __future__ import annotations

_EXPORTS = {
    "CacheStats": "cache",
    "LRUCache": "cache",
    "DEFAULT_TENANT": "requests",
    "DiagnosisRequest": "requests",
    "DiagnosisResponse": "requests",
    "request_key": "requests",
    "topology_key": "requests",
    "syndrome_digest": "requests",
    "validate_tenant": "requests",
    "encode_lease": "requests",
    "decode_lease": "requests",
    "encode_result": "requests",
    "decode_result": "requests",
    "TenantQueues": "fairqueue",
    "MetricsParseError": "prometheus",
    "parse_metrics_text": "prometheus",
    "render_metrics": "prometheus",
    "render_dashboard": "dashboard",
    "ResultStore": "store",
    "Histogram": "metrics",
    "ServiceMetrics": "metrics",
    "TENANT_COUNTERS": "metrics",
    "WORKER_COUNTERS": "metrics",
    "DiagnosisService": "service",
    "RejectedError": "service",
    "BackgroundHttpServer": "http",
    "HttpClient": "http",
    "HttpError": "http",
    "HttpFrontend": "http",
    "parse_http_target": "http",
    "LoadSpec": "loadgen",
    "LoadReport": "loadgen",
    "FairnessSpec": "loadgen",
    "FairnessReport": "loadgen",
    "build_client_streams": "loadgen",
    "run_load": "loadgen",
    "run_load_http": "loadgen",
    "run_load_http_sync": "loadgen",
    "run_load_sync": "loadgen",
    "run_fairness": "loadgen",
    "run_fairness_sync": "loadgen",
    "verify_against_direct": "loadgen",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
