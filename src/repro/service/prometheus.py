"""Prometheus text-format exporter over :class:`ServiceMetrics`.

Operators scrape, they do not parse bespoke JSON: this module renders the
service's existing counter/histogram machinery into the Prometheus text
exposition format (version 0.0.4) behind ``GET /metrics``, with per-tenant
labels on the admitted/shed/served counters the fair-queueing edge
maintains.  Nothing is re-measured — every series is a view over the same
:class:`~repro.service.metrics.ServiceMetrics` state the ``/stats`` JSON
snapshot reads, so the two surfaces cannot disagree.

The geometric :class:`~repro.service.metrics.Histogram` maps directly onto
a Prometheus histogram: each occupied bucket's upper bound becomes an ``le``
label and counts are exported *cumulatively*, with the mandatory ``+Inf``
bucket, ``_sum`` and ``_count`` series.  Quantiles are then the scraper's
job (``histogram_quantile``), exactly as Prometheus intends.

:func:`parse_metrics_text` is the matching minimal parser/checker — enough
of the exposition format to validate structure (HELP/TYPE discipline, label
syntax, cumulative bucket monotonicity, ``_count`` = ``+Inf``) and to read
sample values back.  Tests and the CI smoke leg use it to round-trip the
exporter's output and cross-check it against ``/stats``.
"""

from __future__ import annotations

import math
import re

from .metrics import Histogram, ServiceMetrics

__all__ = ["render_metrics", "parse_metrics_text", "MetricsParseError"]

_PREFIX = "repro"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    """A float in the shortest form the text format accepts."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Writer:
    """Accumulates one metric family at a time (HELP/TYPE then samples)."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {_PREFIX}_{name} {help_text}")
        self._lines.append(f"# TYPE {_PREFIX}_{name} {kind}")

    def sample(
        self,
        name: str,
        value: float,
        labels: dict[str, str] | None = None,
        *,
        suffix: str = "",
    ) -> None:
        label_text = ""
        if labels:
            inner = ",".join(
                f'{label}="{_escape_label(text)}"'
                for label, text in labels.items()
            )
            label_text = f"{{{inner}}}"
        self._lines.append(
            f"{_PREFIX}_{name}{suffix}{label_text} {_format_value(value)}"
        )

    def histogram(self, name: str, histogram: Histogram, help_text: str) -> None:
        """One Histogram as a cumulative-bucket Prometheus histogram."""
        self.family(name, "histogram", help_text)
        cumulative = 0
        for index in sorted(histogram._counts):
            cumulative += histogram._counts[index]
            upper = histogram._bucket_upper(index)
            self.sample(
                name, cumulative, {"le": _format_value(upper)},
                suffix="_bucket",
            )
        self.sample(
            name, histogram.count, {"le": "+Inf"}, suffix="_bucket"
        )
        self.sample(name, histogram.total, suffix="_sum")
        self.sample(name, histogram.count, suffix="_count")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_metrics(
    metrics: ServiceMetrics,
    *,
    pending: int | None = None,
    pending_by_tenant: dict[str, int] | None = None,
    cache_stats: dict | None = None,
    store_stats: dict | None = None,
    http_stats: dict | None = None,
    fabric_stats: dict | None = None,
) -> str:
    """The ``GET /metrics`` body for one service's telemetry.

    ``cache_stats``/``store_stats``/``http_stats``/``fabric_stats`` take the
    same dicts the ``/stats`` snapshot embeds (topology-cache counters,
    result-store counters, HTTP frontend counters, fabric coordinator
    gauges); absent sections are simply omitted.  Per-fabric-worker counters
    render whenever ``metrics.workers`` has rows.
    """
    out = _Writer()

    out.family("requests", "counter",
               "Requests received (admitted + shed), all tenants.")
    out.sample("requests", metrics.requests, suffix="_total")
    out.family("responses", "counter",
               "Responses served, by how the answer was produced.")
    for source, count in (
        ("computed", metrics.computed),
        ("store", metrics.store_hits),
        ("coalesced", metrics.coalesced_duplicates),
    ):
        out.sample("responses", count, {"source": source}, suffix="_total")
    out.family("rejected", "counter",
               "Requests shed by admission control, all tenants.")
    out.sample("rejected", metrics.rejected, suffix="_total")
    out.family("response_errors", "counter",
               "Responses carrying a DiagnosisError, all tenants.")
    out.sample("response_errors", metrics.errors, suffix="_total")
    out.family("batches", "counter", "Batches dispatched.")
    out.sample("batches", metrics.batches, suffix="_total")
    out.family("coalesced_batches", "counter",
               "Dispatched batches that served more than one request.")
    out.sample("coalesced_batches", metrics.coalesced_batches, suffix="_total")
    out.family("worker_compiles", "counter",
               "Topology compilations observed inside batch execution "
               "(the zero-recompilation evidence).")
    out.sample("worker_compiles", metrics.worker_compiles, suffix="_total")
    out.family("fabric_fallbacks", "counter",
               "Batches the fabric declined that fell through to the "
               "local/pooled execution path.")
    out.sample("fabric_fallbacks", metrics.fabric_fallbacks, suffix="_total")

    # ---------------------------------------------------- per-tenant counters
    tenants = sorted(metrics.tenants.items())
    out.family("tenant_admitted", "counter",
               "Requests admitted (incl. store hits and coalesced joins), "
               "per tenant.")
    for tenant, row in tenants:
        out.sample("tenant_admitted", row["admitted"], {"tenant": tenant},
                   suffix="_total")
    out.family("tenant_rejected", "counter",
               "Requests shed by admission control, per tenant.")
    for tenant, row in tenants:
        out.sample("tenant_rejected", row["rejected"], {"tenant": tenant},
                   suffix="_total")
    out.family("tenant_served", "counter",
               "Responses served per tenant, by answer source.")
    for tenant, row in tenants:
        for source, counter in (("computed", "computed"),
                                ("store", "store_hits"),
                                ("coalesced", "coalesced")):
            out.sample("tenant_served", row[counter],
                       {"tenant": tenant, "source": source}, suffix="_total")
    out.family("tenant_errors", "counter",
               "Error responses per tenant.")
    for tenant, row in tenants:
        out.sample("tenant_errors", row["errors"], {"tenant": tenant},
                   suffix="_total")

    # ---------------------------------------------- per-fabric-worker counters
    if metrics.workers:
        workers = sorted(metrics.workers.items())
        for counter, help_text in (
            ("dispatched", "Batch leases dispatched to each fabric worker."),
            ("completed",
             "Leases each fabric worker answered first (duplicates dropped)."),
            ("retried",
             "Lease timeouts while each fabric worker held the lease."),
            ("requeued",
             "Leases requeued off each fabric worker (death or terminal "
             "error)."),
            ("evictions",
             "Times each fabric worker was declared dead (EOF or missed "
             "heartbeats)."),
            ("errors",
             "Terminal error frames each fabric worker reported against "
             "a lease."),
        ):
            out.family(f"worker_{counter}", "counter", help_text)
            for worker, row in workers:
                out.sample(f"worker_{counter}", row[counter],
                           {"worker": worker}, suffix="_total")

    # ------------------------------------------------------------ histograms
    out.histogram("request_latency_seconds", metrics.latency,
                  "End-to-end seconds from submit to response.")
    out.histogram("queue_wait_seconds", metrics.queue_wait,
                  "Seconds a batched request waited before dispatch.")
    out.histogram("batch_width", metrics.batch_size,
                  "Stacked-kernel width of executed batches.")
    out.histogram("queue_depth", metrics.queue_depth,
                  "Pending requests observed at each enqueue.")

    # --------------------------------------------------------------- gauges
    if pending is not None:
        out.family("pending_requests", "gauge",
                   "Requests queued but not yet dispatched.")
        out.sample("pending_requests", pending)
    if pending_by_tenant:
        out.family("tenant_pending_requests", "gauge",
                   "Queued undispatched requests per tenant (the quota "
                   "admission control compares against).")
        for tenant, depth in sorted(pending_by_tenant.items()):
            out.sample("tenant_pending_requests", depth, {"tenant": tenant})

    if cache_stats is not None:
        out.family("topology_cache_entries", "gauge",
                   "Compiled topologies currently cached.")
        out.sample("topology_cache_entries", cache_stats["size"])
        out.family("topology_cache_events", "counter",
                   "Topology cache hits / misses / evictions.")
        for event in ("hits", "misses", "evictions"):
            out.sample("topology_cache_events", cache_stats[event],
                       {"event": event}, suffix="_total")

    if store_stats is not None:
        out.family("store_results", "gauge",
                   "Distinct results currently in the persistent store.")
        out.sample("store_results", store_stats["results"])
        out.family("store_events", "counter",
                   "Result-store hits / misses / writes / evictions.")
        for event in ("hits", "misses", "writes", "dedup_writes",
                      "expired_evictions", "lru_evictions",
                      "clock_skew_skips"):
            out.sample("store_events", store_stats.get(event, 0),
                       {"event": event}, suffix="_total")

    if http_stats is not None:
        out.family("http_connections_open", "gauge",
                   "Currently open HTTP connections.")
        out.sample("http_connections_open", http_stats["connections_open"])
        out.family("http_connections", "counter",
                   "HTTP connections accepted.")
        out.sample("http_connections", http_stats["connections_total"],
                   suffix="_total")
        out.family("http_requests", "counter", "HTTP requests parsed.")
        out.sample("http_requests", http_stats["requests"], suffix="_total")
        out.family("http_shed", "counter",
                   "HTTP requests answered 429 (admission shed).")
        out.sample("http_shed", http_stats["shed"], suffix="_total")
        out.family("http_client_errors", "counter",
                   "HTTP requests answered with a 4xx other than 429.")
        out.sample("http_client_errors", http_stats["client_errors"],
                   suffix="_total")

    if fabric_stats is not None:
        out.family("fabric_workers_live", "gauge",
                   "Fabric workers currently registered, alive and "
                   "connected.")
        out.sample("fabric_workers_live", fabric_stats["workers_live"])
        out.family("fabric_workers_known", "gauge",
                   "Fabric workers ever registered (alive or dead).")
        out.sample("fabric_workers_known", fabric_stats["workers_known"])
        out.family("fabric_outstanding_leases", "gauge",
                   "Batch leases dispatched to the fabric and not yet "
                   "resolved.")
        out.sample("fabric_outstanding_leases",
                   fabric_stats["outstanding_leases"])
        out.family("fabric_duplicate_completions", "counter",
                   "Result frames dropped because their lease was already "
                   "answered (duplicate-delivery / late-retry dedup).")
        out.sample("fabric_duplicate_completions",
                   fabric_stats["duplicate_completions"], suffix="_total")
        out.family("fabric_protocol_errors", "counter",
                   "Malformed or unexpected fabric frames received.")
        out.sample("fabric_protocol_errors",
                   fabric_stats["protocol_errors"], suffix="_total")

    return out.render()


class MetricsParseError(ValueError):
    """The exporter output violated the text exposition format."""


def parse_metrics_text(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse (and structurally validate) Prometheus text-format output.

    Returns ``{(metric name, sorted label items): value}``.  Raises
    :class:`MetricsParseError` on malformed lines, samples without a
    preceding ``# TYPE``, duplicate series, non-monotone cumulative
    histogram buckets, or a histogram whose ``_count`` disagrees with its
    ``+Inf`` bucket — the checks the CI smoke leg runs against a live
    ``/metrics`` scrape.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    types: dict[str, str] = {}
    helps: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.match(parts[2]):
                raise MetricsParseError(f"line {number}: malformed HELP: {line!r}")
            if parts[2] in helps:
                raise MetricsParseError(
                    f"line {number}: duplicate HELP for {parts[2]!r}"
                )
            helps.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise MetricsParseError(f"line {number}: malformed TYPE: {line!r}")
            if parts[3] not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                raise MetricsParseError(
                    f"line {number}: unknown metric type {parts[3]!r}"
                )
            if parts[2] in types:
                raise MetricsParseError(
                    f"line {number}: duplicate TYPE for {parts[2]!r}"
                )
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise MetricsParseError(f"line {number}: malformed sample: {line!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            position = 0
            while position < len(label_text):
                label_match = _LABEL_RE.match(label_text, position)
                if label_match is None:
                    raise MetricsParseError(
                        f"line {number}: malformed labels: {label_text!r}"
                    )
                labels[label_match.group("name")] = (
                    label_match.group("value")
                    .replace(r"\"", '"').replace(r"\n", "\n")
                    .replace("\\\\", "\\")
                )
                position = label_match.end()
                if position < len(label_text):
                    if label_text[position] != ",":
                        raise MetricsParseError(
                            f"line {number}: malformed labels: {label_text!r}"
                        )
                    position += 1
        base = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        if base not in types and name not in types:
            raise MetricsParseError(
                f"line {number}: sample {name!r} has no preceding # TYPE"
            )
        try:
            value = float(match.group("value"))
        except ValueError:
            raise MetricsParseError(
                f"line {number}: bad sample value {match.group('value')!r}"
            )
        key = (name, tuple(sorted(labels.items())))
        if key in samples:
            raise MetricsParseError(f"line {number}: duplicate series {key!r}")
        samples[key] = value

    # Histogram structural checks: cumulative buckets must be monotone and
    # end at the +Inf bucket, which must equal the _count series.
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets: dict[tuple[tuple[str, str], ...], list[tuple[float, float]]] = {}
        for (name, labels), value in samples.items():
            if name != f"{family}_bucket":
                continue
            label_map = dict(labels)
            upper_text = label_map.pop("le", None)
            if upper_text is None:
                raise MetricsParseError(
                    f"{family}: bucket sample without an 'le' label"
                )
            upper = math.inf if upper_text == "+Inf" else float(upper_text)
            buckets.setdefault(
                tuple(sorted(label_map.items())), []
            ).append((upper, value))
        for labels, series in buckets.items():
            series.sort(key=lambda pair: pair[0])
            counts = [count for _, count in series]
            if counts != sorted(counts):
                raise MetricsParseError(
                    f"{family}{dict(labels)}: cumulative buckets not monotone"
                )
            if series[-1][0] != math.inf:
                raise MetricsParseError(
                    f"{family}{dict(labels)}: missing +Inf bucket"
                )
            count_key = (f"{family}_count", labels)
            if count_key not in samples:
                raise MetricsParseError(f"{family}: missing _count series")
            if samples[count_key] != series[-1][1]:
                raise MetricsParseError(
                    f"{family}: _count {samples[count_key]} disagrees with "
                    f"+Inf bucket {series[-1][1]}"
                )
    return samples
