"""Prometheus exporter: render/parse round-trip and format validation."""

from __future__ import annotations

import math

import pytest

from repro.service import (
    MetricsParseError,
    ServiceMetrics,
    parse_metrics_text,
    render_metrics,
)
from repro.service.prometheus import _escape_label, _format_value


def populated_metrics() -> ServiceMetrics:
    metrics = ServiceMetrics()
    for index in range(5):
        metrics.record_enqueue(index, tenant="acme")
    metrics.record_enqueue(5, tenant="beta")
    metrics.record_rejection(6, tenant="acme")
    metrics.record_batch(5, compiles=0, kernel_width=5)
    for index in range(5):
        metrics.record_response("computed", 0.01 * (index + 1), tenant="acme")
    metrics.record_response("store", 0.001, tenant="beta")
    metrics.queue_wait.record(0.002)
    return metrics


def series(samples, name, **labels):
    return samples[(name, tuple(sorted(labels.items())))]


class TestRoundTrip:
    def test_parse_accepts_render(self):
        text = render_metrics(populated_metrics())
        samples = parse_metrics_text(text)
        assert samples  # structural checks all passed

    def test_counters_round_trip(self):
        samples = parse_metrics_text(render_metrics(populated_metrics()))
        assert series(samples, "repro_requests_total") == 7
        assert series(samples, "repro_rejected_total") == 1
        assert series(samples, "repro_responses_total", source="computed") == 5
        assert series(samples, "repro_responses_total", source="store") == 1
        assert series(samples, "repro_batches_total") == 1

    def test_tenant_labels_round_trip(self):
        samples = parse_metrics_text(render_metrics(populated_metrics()))
        assert series(samples, "repro_tenant_admitted_total", tenant="acme") == 5
        assert series(samples, "repro_tenant_admitted_total", tenant="beta") == 1
        assert series(samples, "repro_tenant_rejected_total", tenant="acme") == 1
        assert series(samples, "repro_tenant_served_total",
                      tenant="acme", source="computed") == 5
        assert series(samples, "repro_tenant_served_total",
                      tenant="beta", source="store") == 1

    def test_histogram_buckets_cumulative_and_complete(self):
        metrics = populated_metrics()
        samples = parse_metrics_text(render_metrics(metrics))
        assert series(samples, "repro_request_latency_seconds_count") == 6
        assert series(samples, "repro_request_latency_seconds_bucket",
                      le="+Inf") == 6
        total = series(samples, "repro_request_latency_seconds_sum")
        assert total == pytest.approx(metrics.latency.total)
        # Every finite bucket's cumulative count matches a direct count of
        # recorded values at or below its upper bound.
        recorded = [0.01, 0.02, 0.03, 0.04, 0.05, 0.001]
        for (name, labels), value in samples.items():
            if name != "repro_request_latency_seconds_bucket":
                continue
            upper_text = dict(labels)["le"]
            if upper_text == "+Inf":
                continue
            upper = float(upper_text)
            assert value == sum(1 for v in recorded if v <= upper * (1 + 1e-12))

    def test_consistent_with_stats_snapshot(self):
        metrics = populated_metrics()
        snapshot = metrics.snapshot()
        samples = parse_metrics_text(render_metrics(metrics))
        assert series(samples, "repro_requests_total") == snapshot["requests"]
        for tenant, row in snapshot["tenants"].items():
            assert series(samples, "repro_tenant_admitted_total",
                          tenant=tenant) == row["admitted"]
            served = sum(
                series(samples, "repro_tenant_served_total",
                       tenant=tenant, source=source)
                for source in ("computed", "store", "coalesced")
            )
            assert served == row["served"]

    def test_optional_sections(self):
        text = render_metrics(
            populated_metrics(),
            pending=3,
            pending_by_tenant={"acme": 2, "beta": 1},
            cache_stats={"size": 4, "hits": 10, "misses": 2, "evictions": 1},
            store_stats={"results": 7, "hits": 5, "misses": 3, "writes": 7,
                         "dedup_writes": 0, "expired_evictions": 0,
                         "lru_evictions": 0, "clock_skew_skips": 0},
            http_stats={"connections_open": 1, "connections_total": 9,
                        "requests": 20, "shed": 2, "client_errors": 1},
        )
        samples = parse_metrics_text(text)
        assert series(samples, "repro_pending_requests") == 3
        assert series(samples, "repro_tenant_pending_requests",
                      tenant="acme") == 2
        assert series(samples, "repro_topology_cache_entries") == 4
        assert series(samples, "repro_topology_cache_events_total",
                      event="hits") == 10
        assert series(samples, "repro_store_results") == 7
        assert series(samples, "repro_store_events_total",
                      event="clock_skew_skips") == 0
        assert series(samples, "repro_http_shed_total") == 2

    def test_store_stats_missing_event_defaults_to_zero(self):
        # A pre-upgrade stats dict without clock_skew_skips must not KeyError.
        text = render_metrics(
            ServiceMetrics(),
            store_stats={"results": 0, "hits": 0, "misses": 0, "writes": 0,
                         "dedup_writes": 0, "expired_evictions": 0,
                         "lru_evictions": 0},
        )
        samples = parse_metrics_text(text)
        assert series(samples, "repro_store_events_total",
                      event="clock_skew_skips") == 0

    def test_empty_metrics_render_cleanly(self):
        samples = parse_metrics_text(render_metrics(ServiceMetrics()))
        assert series(samples, "repro_requests_total") == 0
        # Empty histograms still expose the mandatory series.
        assert series(samples, "repro_request_latency_seconds_bucket",
                      le="+Inf") == 0
        assert series(samples, "repro_request_latency_seconds_count") == 0


class TestFormatting:
    def test_label_escaping_round_trips(self):
        metrics = ServiceMetrics()
        awkward = 'a.b:c@d-e_f'
        metrics.record_enqueue(0, tenant=awkward)
        samples = parse_metrics_text(render_metrics(metrics))
        assert series(samples, "repro_tenant_admitted_total",
                      tenant=awkward) == 1

    def test_escape_label(self):
        assert _escape_label('a"b') == r'a\"b'
        assert _escape_label("a\\b") == r"a\\b"
        assert _escape_label("a\nb") == r"a\nb"

    def test_format_value(self):
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"
        assert _format_value(math.inf) == "+Inf"
        assert _format_value(-math.inf) == "-Inf"
        assert _format_value(math.nan) == "NaN"

    def test_content_shape(self):
        text = render_metrics(populated_metrics())
        assert text.endswith("\n")
        lines = text.splitlines()
        # Every family leads with HELP then TYPE.
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                assert lines[index - 1].startswith("# HELP ")


class TestParserRejections:
    def test_orphan_sample(self):
        with pytest.raises(MetricsParseError, match="no preceding # TYPE"):
            parse_metrics_text("repro_surprise_total 3\n")

    def test_malformed_type(self):
        with pytest.raises(MetricsParseError, match="unknown metric type"):
            parse_metrics_text(
                "# HELP repro_x x\n# TYPE repro_x bogus\nrepro_x 1\n"
            )

    def test_duplicate_type(self):
        with pytest.raises(MetricsParseError, match="duplicate TYPE"):
            parse_metrics_text(
                "# HELP repro_x x\n# TYPE repro_x counter\n"
                "# TYPE repro_x counter\nrepro_x_total 1\n"
            )

    def test_duplicate_series(self):
        with pytest.raises(MetricsParseError, match="duplicate series"):
            parse_metrics_text(
                "# HELP repro_x x\n# TYPE repro_x counter\n"
                "repro_x_total 1\nrepro_x_total 2\n"
            )

    def test_malformed_labels(self):
        with pytest.raises(MetricsParseError, match="malformed labels"):
            parse_metrics_text(
                "# HELP repro_x x\n# TYPE repro_x counter\n"
                'repro_x_total{tenant="a" extra} 1\n'
            )

    def test_bad_value(self):
        with pytest.raises(MetricsParseError, match="bad sample value"):
            parse_metrics_text(
                "# HELP repro_x x\n# TYPE repro_x gauge\nrepro_x elephant\n"
            )

    def test_non_monotone_histogram(self):
        with pytest.raises(MetricsParseError, match="not monotone"):
            parse_metrics_text(
                "# HELP repro_h h\n# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="2"} 3\n'
                'repro_h_bucket{le="+Inf"} 5\n'
                "repro_h_sum 4\nrepro_h_count 5\n"
            )

    def test_missing_inf_bucket(self):
        with pytest.raises(MetricsParseError, match=r"missing \+Inf"):
            parse_metrics_text(
                "# HELP repro_h h\n# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                "repro_h_sum 4\nrepro_h_count 5\n"
            )

    def test_count_disagrees_with_inf_bucket(self):
        with pytest.raises(MetricsParseError, match="disagrees"):
            parse_metrics_text(
                "# HELP repro_h h\n# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="+Inf"} 5\n'
                "repro_h_sum 4\nrepro_h_count 6\n"
            )

    def test_tampered_render_is_caught(self):
        text = render_metrics(populated_metrics())
        tampered = text.replace(
            'repro_request_latency_seconds_bucket{le="+Inf"} 6',
            'repro_request_latency_seconds_bucket{le="+Inf"} 5',
        )
        assert tampered != text
        with pytest.raises(MetricsParseError):
            parse_metrics_text(tampered)

    def test_free_form_comments_ignored(self):
        samples = parse_metrics_text(
            "# scraped from somewhere\n"
            "# HELP repro_x x\n# TYPE repro_x gauge\nrepro_x 1\n"
        )
        assert series(samples, "repro_x") == 1
