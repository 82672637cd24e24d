"""``/dashboard`` rendering: well-formed HTML, numbers faithful to stats().

The page is pure presentation over the ``stats()`` snapshot, so the suite
drives a real service (multi-tenant traffic, store, fabric counters),
renders, and then checks the page against the *same snapshot*: every
per-tenant counter, queue histogram and cache/store number shown must be
the one ``stats()`` reported.  Well-formedness is checked with a strict
tag-balance parser — a regression here is an operator console that
silently renders garbage.
"""

from __future__ import annotations

import asyncio
import html.parser

from repro.service import (
    DiagnosisRequest,
    DiagnosisService,
    ResultStore,
    render_dashboard,
)

_VOID_TAGS = {"meta", "br", "hr", "img", "link", "input"}


class _StrictParser(html.parser.HTMLParser):
    """Fails on unbalanced tags; collects table cell text per section."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []
        self.cells: list[str] = []
        self.headings: list[str] = []
        self._text_target: list[str] | None = None

    def handle_starttag(self, tag, attrs):
        if tag in _VOID_TAGS:
            return
        self.stack.append(tag)
        if tag in ("td", "th"):
            self._text_target = self.cells
        elif tag in ("h1", "h2"):
            self._text_target = self.headings

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(
                f"closing </{tag}> but open stack is {self.stack!r}"
            )
        else:
            self.stack.pop()
        if tag in ("td", "th", "h1", "h2"):
            self._text_target = None

    def handle_data(self, data):
        if self._text_target is not None and data.strip():
            self._text_target.append(data.strip())


def _parse(page: str) -> _StrictParser:
    parser = _StrictParser()
    parser.feed(page)
    parser.close()
    assert parser.errors == [], parser.errors
    assert parser.stack == [], f"unclosed tags: {parser.stack}"
    return parser


def _populated_stats() -> dict:
    """A real snapshot: two tenants, repeats, a store, a bounded cache."""

    async def drive():
        service = DiagnosisService(
            store=ResultStore(),
            topology_cache_capacity=2, tenant_weights={"gold": 3},
        )
        async with service:
            requests = [
                DiagnosisRequest.seeded(
                    "hypercube", {"dimension": 5}, seed=seed, tenant=tenant
                )
                for seed in range(3)
                for tenant in ("gold", "bronze")
            ]
            await service.submit_many(requests + requests[:2])
            return service.stats()

    return asyncio.run(drive())


class TestRendering:
    def test_renders_well_formed_html_over_a_real_snapshot(self):
        stats = _populated_stats()
        page = render_dashboard(stats)
        parser = _parse(page)
        assert page.startswith("<!DOCTYPE html>")
        assert "repro diagnosis service" in parser.headings
        assert "tenants" in parser.headings

    def test_tenant_and_service_numbers_match_stats(self):
        stats = _populated_stats()
        parser = _parse(render_dashboard(stats))
        cells = parser.cells
        # Global counters: every (name, value) the service section lists
        # must appear as adjacent cells with the snapshot's exact value.
        for name in ("requests", "computed", "store_hits",
                     "coalesced_duplicates", "rejected", "errors", "batches",
                     "turns"):
            position = cells.index(name)
            assert cells[position + 1] == str(stats[name]), name
        # Per-tenant rows, column for column.
        columns = ("admitted", "rejected", "served", "computed",
                   "store_hits", "coalesced", "errors")
        for tenant, row in stats["tenants"].items():
            position = cells.index(tenant)
            rendered = cells[position + 1:position + 1 + len(columns)]
            assert rendered == [str(row.get(c, 0)) for c in columns], tenant

    def test_queue_histograms_match_stats(self):
        stats = _populated_stats()
        parser = _parse(render_dashboard(stats))
        cells = parser.cells
        for section in ("latency_ms", "queue_wait_ms", "batch_size",
                        "queue_depth"):
            summary = stats[section]
            if not summary or summary.get("count", 0) == 0:
                continue
            # The count column's value must be the snapshot's.
            assert str(summary["count"]) in cells, section

    def test_topology_cache_section_renders_from_a_real_snapshot(self):
        """Regression: the snapshot files the cache under "topology_cache";
        the dashboard used to look up "cache" only and silently dropped the
        whole section."""
        stats = _populated_stats()
        assert "topology_cache" in stats  # the snapshot's actual key
        parser = _parse(render_dashboard(stats))
        assert "topology cache" in parser.headings
        cells = parser.cells
        for name, value in stats["topology_cache"].items():
            if isinstance(value, (int, float)):
                position = cells.index(name)
                assert cells[position + 1] == str(value), name

    def test_store_section_matches_stats(self):
        stats = _populated_stats()
        parser = _parse(render_dashboard(stats))
        assert "result store" in parser.headings
        position = parser.cells.index("results")
        assert parser.cells[position + 1] == str(stats["store"]["results"])

    def test_http_section_renders_when_present(self):
        stats = {"service": _populated_stats(),
                 "http": {"requests": 41, "shed": 2, "connections_total": 7}}
        parser = _parse(render_dashboard(stats))
        assert "http frontend" in parser.headings
        position = parser.cells.index("requests")
        # The http table renders its own "requests" counter too; find the
        # one adjacent to 41 specifically.
        assert "41" in parser.cells
        assert "7" in parser.cells

    def test_worker_and_fabric_section(self):
        stats = _populated_stats()
        stats["workers"] = {
            "w1": {"dispatched": 9, "completed": 8, "retried": 1,
                   "requeued": 2, "evictions": 0},
        }
        stats["fabric"] = {
            "address": "127.0.0.1:5", "workers_live": 1,
            "outstanding_leases": 0, "duplicate_completions": 3,
            "live_workers": ["w1"],
        }
        parser = _parse(render_dashboard(stats))
        assert "fabric workers" in parser.headings
        cells = parser.cells
        position = cells.index("w1")
        assert cells[position + 1:position + 6] == ["9", "8", "1", "2", "0"]
        # Numeric fabric counters render; strings and lists are left out.
        dup = cells.index("duplicate_completions")
        assert cells[dup + 1] == "3"
        assert "address" not in cells
        assert "live_workers" not in cells

    def test_empty_stats_still_render(self):
        parser = _parse(render_dashboard({}))
        assert "no tenants seen yet" in render_dashboard({})
        assert parser.stack == []

    def test_title_and_refresh_are_escaped_and_applied(self):
        page = render_dashboard({}, title="<evil> & co", refresh_seconds=9)
        assert "<evil>" not in page
        assert "&lt;evil&gt; &amp; co" in page
        assert 'content="9"' in page
