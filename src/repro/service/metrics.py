"""Service telemetry: histograms, counters and the ``stats`` snapshot.

Everything the service wants to know about itself in production — how long
requests wait, how big coalesced batches get, how deep the queue runs, how
often the caches and the result store answer — accumulates here and comes
out of :meth:`ServiceMetrics.snapshot`, the dict behind the ``stats``
endpoint (``DiagnosisService.stats()`` and the CLI's ``--stats-json``).

:class:`Histogram` keeps exact counts in geometric buckets, so percentile
estimates need no stored samples and the memory footprint is a few dozen
integers however many requests pass through.
"""

from __future__ import annotations

import math

__all__ = ["Histogram", "ServiceMetrics", "TENANT_COUNTERS", "WORKER_COUNTERS"]


class Histogram:
    """A geometric-bucket histogram with exact count/sum/min/max.

    Buckets grow by ``growth`` per step from ``smallest`` (values at or
    below ``smallest`` share the first bucket), giving ~9% relative error
    on quantile estimates at the default growth — plenty for latency and
    batch-size telemetry.
    """

    def __init__(self, *, smallest: float = 1e-5, growth: float = 1.2) -> None:
        if smallest <= 0 or growth <= 1:
            raise ValueError("smallest must be positive and growth > 1")
        self.smallest = smallest
        self.growth = growth
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def _bucket(self, value: float) -> int:
        """Index of the bucket covering ``value``.

        Bucket ``i`` covers ``(_bucket_upper(i - 1), _bucket_upper(i)]`` with
        bucket 0 taking everything at or below ``smallest``.  The log-ratio
        formula alone can land a value *on* a boundary one bucket off (the
        quotient sits within one ulp of an integer and truncation goes either
        way depending on platform/libm), shifting percentile estimates, so
        the candidate index is nudged until the bracket actually holds.
        """
        if value <= self.smallest:
            return 0
        index = 1 + int(math.log(value / self.smallest) / math.log(self.growth))
        while index > 1 and value <= self._bucket_upper(index - 1):
            index -= 1
        while value > self._bucket_upper(index):
            index += 1
        return index

    def _bucket_upper(self, index: int) -> float:
        return self.smallest * self.growth ** index

    def record(self, value: float) -> None:
        value = float(value)
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        index = self._bucket(value)
        self._counts[index] = self._counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile observation."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen > rank:
                upper = self._bucket_upper(index)
                # Clamp to observed extremes: the top bucket's upper bound can
                # overshoot max, and bucket 0 undershoots a min above smallest.
                return max(min(upper, self.max), self.min)
        return self.max  # pragma: no cover - unreachable (seen ends at count)

    def summary(self, *, scale: float = 1.0, digits: int = 3) -> dict:
        """Snapshot dict; ``scale`` converts units (e.g. 1e3 for s -> ms)."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": round(self.mean * scale, digits),
            "p50": round(self.quantile(0.50) * scale, digits),
            "p90": round(self.quantile(0.90) * scale, digits),
            "p99": round(self.quantile(0.99) * scale, digits),
            "min": round(self.min * scale, digits),
            "max": round(self.max * scale, digits),
        }


#: Counter names of one tenant's accounting row (see
#: :meth:`ServiceMetrics.tenant`); ``admitted`` counts every request that
#: was not shed (store hits and coalesced joins included), ``rejected``
#: counts sheds, and the three source counters sum to the served total.
TENANT_COUNTERS = (
    "admitted", "rejected", "computed", "store_hits", "coalesced", "errors",
)

#: Counter names of one fabric worker's accounting row (see
#: :meth:`ServiceMetrics.worker`): ``dispatched`` leases sent to it,
#: ``completed`` leases it answered first, ``retried`` lease timeouts while
#: it held the lease, ``requeued`` leases taken back because it died (or
#: reported a terminal error), ``evictions`` — how many times it was
#: declared dead (EOF or missed heartbeats) — and ``errors``, terminal
#: error frames it reported against a lease.
WORKER_COUNTERS = (
    "dispatched", "completed", "retried", "requeued", "evictions", "errors",
)


class ServiceMetrics:
    """All counters and histograms of one :class:`DiagnosisService`.

    The global counters aggregate across tenants; :attr:`tenants` keeps one
    small counter row per tenant name seen, which is what the Prometheus
    exporter turns into ``{tenant="..."}``-labelled series and the fairness
    load generator pins its splits against.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.computed = 0
        self.store_hits = 0
        self.coalesced_duplicates = 0
        self.rejected = 0
        self.errors = 0
        self.batches = 0
        self.coalesced_batches = 0  # batches serving >1 request
        #: execution turns: one pool task or fabric lease (one batch each),
        #: or one in-process slot turn (every queued topology's batch)
        self.turns = 0
        self.worker_compiles = 0
        #: batches the fabric declined (no live workers / all retries spent)
        #: that fell through to the local or pooled execution path
        self.fabric_fallbacks = 0
        #: per-tenant counter rows, keyed by tenant name (insertion order =
        #: first-seen order; the snapshot sorts for stable output)
        self.tenants: dict[str, dict[str, int]] = {}
        #: per-fabric-worker counter rows, keyed by worker id — populated by
        #: the :class:`~repro.fabric.coordinator.FabricCoordinator` sharing
        #: this metrics object; empty for services without a fabric
        self.workers: dict[str, dict[str, int]] = {}
        #: end-to-end seconds from submit to response, per request
        self.latency = Histogram()
        #: seconds each request waited from enqueue until its batch started
        #: to run (in a multi-topology in-process turn, behind the turn's
        #: earlier batches too)
        self.queue_wait = Histogram()
        #: post-slicing stacked-kernel width per executed batch (requests
        #: whose syndrome failed to construct never reach the kernel)
        self.batch_size = Histogram(smallest=1.0, growth=1.5)
        #: pending requests observed at each enqueue (depth *before* adding)
        self.queue_depth = Histogram(smallest=1.0, growth=1.5)

    # ------------------------------------------------------------- recorders
    def tenant(self, tenant: str) -> dict[str, int]:
        """The counter row of one tenant (created zeroed on first touch)."""
        row = self.tenants.get(tenant)
        if row is None:
            row = self.tenants[tenant] = dict.fromkeys(TENANT_COUNTERS, 0)
        return row

    def worker(self, worker_id: str) -> dict[str, int]:
        """The counter row of one fabric worker (created zeroed on first touch)."""
        row = self.workers.get(worker_id)
        if row is None:
            row = self.workers[worker_id] = dict.fromkeys(WORKER_COUNTERS, 0)
        return row

    def record_enqueue(self, depth: int, *, tenant: str = "default") -> None:
        self.requests += 1
        self.queue_depth.record(depth)
        self.tenant(tenant)["admitted"] += 1

    def record_rejection(self, depth: int, *, tenant: str = "default") -> None:
        """A request shed by admission control at the observed queue depth."""
        self.requests += 1
        self.rejected += 1
        self.queue_depth.record(depth)
        self.tenant(tenant)["rejected"] += 1

    def record_batch(
        self,
        size: int,
        *,
        compiles: int,
        kernel_width: int | None = None,
    ) -> None:
        """One executed batch of ``size`` coalesced requests.

        ``kernel_width`` is how many of them actually reached the stacked
        diagnosis kernel (post-slicing, minus construction failures); that is
        what the ``batch_size`` histogram records — a width-0 batch (every
        syndrome failed to construct) still counts as a batch but records no
        histogram sample.  Callers without a kernel report fall back to
        ``size``.
        """
        self.batches += 1
        if size > 1:
            self.coalesced_batches += 1
        width = size if kernel_width is None else kernel_width
        if width > 0:
            self.batch_size.record(width)
        self.worker_compiles += compiles

    def record_response(self, source: str, latency_seconds: float, *,
                        ok: bool = True, tenant: str = "default") -> None:
        self.latency.record(latency_seconds)
        row = self.tenant(tenant)
        if source == "computed":
            self.computed += 1
            row["computed"] += 1
        elif source == "store":
            self.store_hits += 1
            row["store_hits"] += 1
        elif source == "coalesced":
            self.coalesced_duplicates += 1
            row["coalesced"] += 1
        else:
            raise ValueError(f"unknown response source {source!r}")
        if not ok:
            self.errors += 1
            row["errors"] += 1

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """The ``stats`` endpoint body (plain JSON-serialisable dict)."""
        return {
            "requests": self.requests,
            "computed": self.computed,
            "store_hits": self.store_hits,
            "coalesced_duplicates": self.coalesced_duplicates,
            "rejected": self.rejected,
            "errors": self.errors,
            "batches": self.batches,
            "turns": self.turns,
            "coalesced_batches": self.coalesced_batches,
            "mean_batch_size": round(self.batch_size.mean, 3),
            "worker_compiles": self.worker_compiles,
            "fabric_fallbacks": self.fabric_fallbacks,
            "latency_ms": self.latency.summary(scale=1e3),
            "queue_wait_ms": self.queue_wait.summary(scale=1e3),
            "batch_size": self.batch_size.summary(digits=1),
            "queue_depth": self.queue_depth.summary(digits=1),
            "tenants": {
                tenant: {**row, "served": row["computed"] + row["store_hits"]
                         + row["coalesced"]}
                for tenant, row in sorted(self.tenants.items())
            },
            "workers": {
                worker: dict(row)
                for worker, row in sorted(self.workers.items())
            },
        }
