"""Load generator: determinism, closed-loop accounting, verification."""

from __future__ import annotations

import pytest

from repro.service import LoadSpec, ResultStore, build_client_streams, run_load_sync

MIX = (("hypercube", {"dimension": 6}), ("star", {"n": 5}))


def _spec(**kwargs) -> LoadSpec:
    defaults = dict(clients=3, requests_per_client=4, seed=0, seed_pool=3)
    defaults.update(kwargs)
    return LoadSpec.from_mix(MIX, **defaults)


class TestStreams:
    def test_streams_are_deterministic(self):
        assert build_client_streams(_spec()) == build_client_streams(_spec())

    def test_adding_clients_never_reshuffles_existing_ones(self):
        three = build_client_streams(_spec(clients=3))
        five = build_client_streams(_spec(clients=5))
        assert five[:3] == three

    def test_stream_shape(self):
        streams = build_client_streams(_spec())
        assert len(streams) == 3
        assert all(len(stream) == 4 for stream in streams)
        families = {request.family for stream in streams for request in stream}
        assert families <= {"hypercube", "star"}

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="clients"):
            LoadSpec.from_mix(MIX, clients=0)
        with pytest.raises(ValueError, match="requests"):
            LoadSpec.from_mix(MIX, requests_per_client=0)
        with pytest.raises(ValueError, match="seed_pool"):
            LoadSpec.from_mix(MIX, seed_pool=0)
        with pytest.raises(ValueError, match="at least one instance"):
            LoadSpec.from_mix([])


class TestRuns:
    def test_batched_run_answers_everything(self):
        report = run_load_sync(_spec(), store=ResultStore(), verify=True)
        assert report.requests == 12
        assert report.errors == 0
        assert report.mismatches == 0
        assert report.throughput_rps > 0
        sources = report.source_counts()
        assert sum(sources.values()) == 12
        # seed_pool=3 over 12 requests guarantees repeats: something must be
        # deduplicated (from the store or an in-flight computation).
        assert sources["store"] + sources["coalesced"] > 0

    def test_summary_shape(self):
        report = run_load_sync(_spec())
        summary = report.summary()
        assert summary["clients"] == 3
        assert summary["requests"] == 12
        assert set(summary["sources"]) == {"computed", "store", "coalesced"}
        assert summary["rejections"] == 0
        assert "stats" in summary


class TestHttpTransport:
    def test_http_load_verifies_against_direct(self):
        from repro.service import (
            BackgroundHttpServer,
            DiagnosisService,
            run_load_http_sync,
        )

        spec = _spec()
        with BackgroundHttpServer(
            lambda: DiagnosisService(store=ResultStore())
        ) as server:
            report = run_load_http_sync(spec, server.address, verify=True)
        assert report.requests == 12
        assert report.mismatches == 0
        assert report.errors == 0
        assert report.rejections == 0
        # The report's stats came over the wire from /stats.
        assert report.stats["requests"] == 12
        assert report.stats["http"]["connections_total"] == spec.clients + 1

    def test_http_load_absorbs_shedding_and_counts_it(self):
        from repro.service import (
            BackgroundHttpServer,
            DiagnosisService,
            run_load_http_sync,
        )

        spec = _spec(clients=4, requests_per_client=3)
        with BackgroundHttpServer(
            lambda: DiagnosisService(max_queue_depth=1)
        ) as server:
            report = run_load_http_sync(
                spec, server.address, verify=True, retry_delay=0.01
            )
        # Every request was eventually served and verified...
        assert report.requests == 12
        assert report.mismatches == 0
        # ...and the saturating spec (4 concurrent clients, queue bound 1,
        # one executor slot) forced at least one 429 along the way.
        assert report.rejections >= 1
        assert report.stats["rejected"] == report.rejections

    def test_bad_target_rejected(self):
        from repro.service import run_load_http_sync

        with pytest.raises(ValueError, match="explicit port"):
            run_load_http_sync(_spec(), "http://localhost")


class TestTenantStreams:
    def test_streams_carry_the_spec_tenant(self):
        spec = _spec(tenant="acme")
        streams = build_client_streams(spec)
        assert all(
            request.tenant == "acme"
            for stream in streams for request in stream
        )

    def test_tenant_does_not_perturb_the_request_sequence(self):
        plain = build_client_streams(_spec())
        tenanted = build_client_streams(_spec(tenant="acme"))
        for a, b in zip(plain, tenanted):
            assert [r.seed for r in a] == [r.seed for r in b]
            assert [r.family for r in a] == [r.family for r in b]

    def test_invalid_tenant_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            _spec(tenant="")


class TestFairness:
    def _spec(self, **kwargs):
        from repro.service import FairnessSpec

        defaults = dict(
            hot_requests=12, cold_tenants=3, cold_requests_per_tenant=2,
            max_queue_per_tenant=2, seed=0, seed_pool=64,
        )
        defaults.update(kwargs)
        return FairnessSpec.from_mix(MIX, **defaults)

    def test_cold_tenants_complete_while_hot_is_shed(self):
        from repro.service import run_fairness_sync

        report = run_fairness_sync(self._spec())
        assert report.cold_completion == 1.0  # the acceptance criterion
        assert report.hot_shed > 0  # the burst hit its quota
        assert report.hot_served + report.hot_shed == 12
        # seed_pool=64 over 12 requests: no coalesced joins, so the hot
        # tenant serves exactly its quota slots.
        assert report.hot_served == 2

    def test_shed_split_is_deterministic(self):
        import json

        from repro.service import run_fairness_sync

        first = run_fairness_sync(self._spec())
        second = run_fairness_sync(self._spec())
        assert json.dumps(first.split(), sort_keys=True) == \
            json.dumps(second.split(), sort_keys=True)
        # The split is by submission order: the quota slots go to the first
        # requests of the burst, everything after sheds.
        assert first.hot_shed_indices == tuple(range(2, 12))

    def test_coalesced_joins_ride_past_the_quota(self):
        from repro.service import run_fairness_sync

        # seed_pool=2 forces duplicate requests inside the burst: joins on
        # an in-flight key consume no quota slot, so more than quota serves.
        report = run_fairness_sync(self._spec(seed_pool=2))
        assert report.hot_served > 2
        assert report.cold_completion == 1.0

    def test_summary_shape(self):
        from repro.service import run_fairness_sync

        report = run_fairness_sync(self._spec())
        summary = report.summary()
        assert summary["hot_tenant"] == "hot"
        assert summary["hot_requests"] == 12
        assert summary["hot_served"] + summary["hot_shed"] == 12
        assert summary["cold_completion"] == 1.0
        assert summary["max_queue_per_tenant"] == 2
        assert report.stats["tenants"]["hot"]["rejected"] == report.hot_shed

    def test_weights_reach_the_service(self):
        from repro.service import run_fairness_sync

        report = run_fairness_sync(
            self._spec(tenant_weights={"hot": 2, "cold-00": 1})
        )
        assert report.stats["tenant_weights"] == {"hot": 2, "cold-00": 1}
        assert report.cold_completion == 1.0

    def test_spec_validation(self):
        from repro.service import FairnessSpec

        with pytest.raises(ValueError, match="cold_tenants"):
            FairnessSpec.from_mix(MIX, cold_tenants=0)
        with pytest.raises(ValueError, match="request counts"):
            FairnessSpec.from_mix(MIX, hot_requests=0)
        with pytest.raises(ValueError, match="max_queue_per_tenant"):
            FairnessSpec.from_mix(MIX, max_queue_per_tenant=0)
        with pytest.raises(ValueError, match="at least one instance"):
            FairnessSpec.from_mix([])
