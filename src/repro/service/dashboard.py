"""Stdlib-rendered operator dashboard over the ``/stats`` snapshot.

``GET /dashboard`` returns one self-contained HTML page — no JavaScript
frameworks, no external assets, just the ``stats`` dict the service already
exposes, rendered server-side with :mod:`html` escaping and a dash of
inline CSS.  The page auto-refreshes via ``<meta http-equiv="refresh">``,
so a browser tab pointed at a serving process is a live (if spartan)
operations console: global counters, latency/queue-wait percentiles, the
per-tenant admission/served/shed table the fair-queueing edge maintains,
and the cache/store/HTTP sections when present.

Everything here is presentation: the numbers come verbatim from
``DiagnosisService.stats()`` (plus the HTTP frontend's counters), the same
source the JSON endpoint and the Prometheus exporter read.
"""

from __future__ import annotations

import html

__all__ = ["render_dashboard"]

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem;
       background: #14161a; color: #d6dae0; }
h1 { font-size: 1.2rem; border-bottom: 1px solid #3a3f47; padding-bottom: .4rem; }
h2 { font-size: 1rem; margin-top: 1.4rem; color: #9fc4e8; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td { border: 1px solid #3a3f47; padding: .25rem .6rem; text-align: right; }
th { background: #1d2026; color: #9fc4e8; font-weight: normal; }
td.name, th.name { text-align: left; }
.muted { color: #7c828c; }
"""


def _escape(value) -> str:
    return html.escape(str(value), quote=True)


def _counter_rows(pairs) -> str:
    rows = "".join(
        f"<tr><td class=name>{_escape(name)}</td><td>{_escape(value)}</td></tr>"
        for name, value in pairs
    )
    return f"<table><tr><th class=name>counter</th><th>value</th></tr>{rows}</table>"


def _histogram_table(title: str, summary: dict) -> str:
    if not summary or summary.get("count", 0) == 0:
        return (f"<h2>{_escape(title)}</h2>"
                f"<p class=muted>no observations yet</p>")
    columns = [key for key in
               ("count", "mean", "p50", "p90", "p99", "min", "max")
               if key in summary]
    head = "".join(f"<th>{_escape(key)}</th>" for key in columns)
    body = "".join(f"<td>{_escape(summary[key])}</td>" for key in columns)
    return (f"<h2>{_escape(title)}</h2>"
            f"<table><tr>{head}</tr><tr>{body}</tr></table>")


def _tenant_table(tenants: dict) -> str:
    if not tenants:
        return "<p class=muted>no tenants seen yet</p>"
    columns = ("admitted", "rejected", "served", "computed", "store_hits",
               "coalesced", "errors")
    head = "".join(f"<th>{_escape(name)}</th>" for name in columns)
    rows = []
    for tenant, row in sorted(tenants.items()):
        cells = "".join(f"<td>{_escape(row.get(name, 0))}</td>"
                        for name in columns)
        rows.append(f"<tr><td class=name>{_escape(tenant)}</td>{cells}</tr>")
    return (f"<table><tr><th class=name>tenant</th>{head}</tr>"
            f"{''.join(rows)}</table>")


def _worker_table(workers: dict) -> str:
    columns = ("dispatched", "completed", "retried", "requeued", "evictions")
    head = "".join(f"<th>{_escape(name)}</th>" for name in columns)
    rows = []
    for worker, row in sorted(workers.items()):
        cells = "".join(f"<td>{_escape(row.get(name, 0))}</td>"
                        for name in columns)
        rows.append(f"<tr><td class=name>{_escape(worker)}</td>{cells}</tr>")
    return (f"<table><tr><th class=name>worker</th>{head}</tr>"
            f"{''.join(rows)}</table>")


def render_dashboard(
    stats: dict, *, title: str = "repro diagnosis service",
    refresh_seconds: int = 5,
) -> str:
    """The ``GET /dashboard`` HTML page for one ``stats()`` snapshot."""
    service = stats.get("service", stats)
    sections: list[str] = []

    sections.append("<h2>service</h2>")
    sections.append(_counter_rows(
        (name, service.get(name, 0))
        for name in ("requests", "computed", "store_hits",
                     "coalesced_duplicates", "rejected", "errors", "batches",
                     "coalesced_batches", "worker_compiles", "pending")
        if name in service
    ))

    sections.append("<h2>tenants</h2>")
    sections.append(_tenant_table(service.get("tenants", {})))
    pending_by_tenant = service.get("pending_by_tenant") or {}
    if pending_by_tenant:
        sections.append("<h2>pending by tenant</h2>")
        sections.append(_counter_rows(sorted(pending_by_tenant.items())))
    weights = service.get("tenant_weights") or {}
    if weights:
        sections.append("<h2>tenant weights</h2>")
        sections.append(_counter_rows(sorted(weights.items())))

    sections.append(_histogram_table("latency (ms)",
                                     service.get("latency_ms", {})))
    sections.append(_histogram_table("queue wait (ms)",
                                     service.get("queue_wait_ms", {})))
    sections.append(_histogram_table("batch width",
                                     service.get("batch_size", {})))
    sections.append(_histogram_table("queue depth",
                                     service.get("queue_depth", {})))

    workers = service.get("workers") or {}
    fabric = service.get("fabric") or stats.get("fabric") or {}
    if workers or fabric:
        sections.append("<h2>fabric workers</h2>")
        if workers:
            sections.append(_worker_table(workers))
        if fabric:
            sections.append(_counter_rows(
                (name, value) for name, value in sorted(fabric.items())
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
            ))

    # The service snapshot files the topology cache under "topology_cache";
    # "cache" is accepted too for hand-built stats dicts.
    for keys, heading in ((("topology_cache", "cache"), "topology cache"),
                          (("store",), "result store"),
                          (("http",), "http frontend")):
        block = None
        for key in keys:
            block = stats.get(key) or service.get(key)
            if block:
                break
        if isinstance(block, dict) and block:
            sections.append(f"<h2>{_escape(heading)}</h2>")
            sections.append(_counter_rows(
                (name, value) for name, value in sorted(block.items())
                if isinstance(value, (int, float))
            ))

    return (
        "<!DOCTYPE html>"
        "<html><head>"
        f"<meta charset=\"utf-8\">"
        f"<meta http-equiv=\"refresh\" content=\"{int(refresh_seconds)}\">"
        f"<title>{_escape(title)}</title>"
        f"<style>{_STYLE}</style>"
        "</head><body>"
        f"<h1>{_escape(title)}</h1>"
        f"{''.join(sections)}"
        "</body></html>"
    )
