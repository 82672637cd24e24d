"""DiagnosisService concurrency: coalescing, batching, dedup, cancellation.

The suite drives the asyncio service from synchronous tests via
``asyncio.run`` (no pytest-asyncio dependency).  Correctness baseline
throughout: :func:`repro.service.executor.run_direct`, the plain pipeline.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.service import (
    DiagnosisRequest,
    DiagnosisService,
    RejectedError,
    ResultStore,
)
from repro.networks.registry import FAMILIES
from repro.service.executor import PLACEMENTS, run_direct

Q6 = ("hypercube", {"dimension": 6})
#: Another topology with Q6's 960-byte pair layout, so batches of the two
#: can trade staging segments without outgrowing them.
CQ6 = ("crossed_cube", {"dimension": 6})
S5 = ("star", {"n": 5})
#: A deterministic Theorem-1-violating instance: 14 faults on the 24-node
#: pancake P_4 leave no certifiable healthy component.
DOOMED = DiagnosisRequest.seeded("pancake", {"n": 4}, fault_count=14, seed=0)
#: Q_3 has no diagnosability under the MM model (it needs n >= 5).
Q3_REQUEST = DiagnosisRequest.seeded("hypercube", {"dimension": 3}, seed=1)
Q7_REQUEST = DiagnosisRequest.seeded("hypercube", {"dimension": 7}, seed=1)


def _request(seed: int = 0, instance=Q6, **kwargs) -> DiagnosisRequest:
    return DiagnosisRequest.seeded(*instance, seed=seed, **kwargs)


def _serve(service: DiagnosisService, *requests):
    async def run():
        async with service:
            return await service.submit_many(list(requests))

    return asyncio.run(run())


class TestCoalescing:
    def test_same_topology_requests_share_one_batch(self):
        service = DiagnosisService()
        responses = _serve(service, *(_request(seed) for seed in range(4)))
        assert [r.source for r in responses] == ["computed"] * 4
        assert {r.batch_size for r in responses} == {4}
        stats = service.stats()
        assert stats["batches"] == 1
        assert stats["coalesced_batches"] == 1
        assert stats["topology_cache"]["misses"] == 1

    def test_distinct_topologies_get_distinct_batches(self):
        service = DiagnosisService()
        responses = _serve(
            service, _request(0, Q6), _request(0, S5), _request(1, Q6), _request(1, S5)
        )
        assert all(r.source == "computed" for r in responses)
        assert service.stats()["batches"] == 2
        assert service.stats()["topology_cache"]["misses"] == 2

    def test_identical_concurrent_requests_compute_once(self):
        service = DiagnosisService()
        responses = _serve(service, _request(7), _request(7), _request(7))
        sources = sorted(r.source for r in responses)
        assert sources == ["coalesced", "coalesced", "computed"]
        assert service.stats()["computed"] == 1
        assert len({r.faulty for r in responses}) == 1

    def test_max_batch_size_caps_batches(self):
        service = DiagnosisService(max_batch_size=2)
        responses = _serve(service, *(_request(seed) for seed in range(4)))
        assert all(r.batch_size <= 2 for r in responses)
        assert service.stats()["batches"] == 2

    def test_batch_of_one_without_topology_cache(self):
        service = DiagnosisService(max_batch_size=1, topology_cache_capacity=0)
        responses = _serve(service, _request(0), _request(1), _request(2))
        assert all(r.source == "computed" for r in responses)
        assert all(r.batch_size == 1 for r in responses)
        stats = service.stats()
        assert stats["batches"] == 3
        assert stats["coalesced_batches"] == 0
        # capacity 0: every batch re-resolved its topology
        assert stats["topology_cache"]["misses"] == 3


class TestCorrectness:
    def test_responses_match_direct_pipeline(self):
        service = DiagnosisService()
        requests = [_request(seed) for seed in range(3)] + [_request(1, S5)]
        responses = _serve(service, *requests)
        for request, response in zip(requests, responses):
            direct = run_direct(request)
            assert response.faulty == direct.faulty
            assert response.healthy_root == direct.healthy_root
            assert response.lookups == direct.lookups
            assert response.syndrome_digest == direct.syndrome_digest

    def test_explicit_syndrome_requests(self, q5):
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.backend.csr import compile_network
        from repro.core.faults import random_faults

        faults = random_faults(q5, 3, seed=9)
        syndrome = ArraySyndrome.from_faults(compile_network(q5), faults, seed=9)
        request = DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": 5}, syndrome
        )
        [response] = _serve(DiagnosisService(), request)
        assert response.faulty_set == faults

    def test_seeded_and_explicit_forms_share_one_store_row(self):
        """The fault-sparse build writes the same bytes the full build did.

        The pinned SHA-256 values of the raw buffers were produced by the
        earlier full-buffer generator; both forms are served the canonical
        digest of those bytes, and the explicit form of the same syndrome
        files onto the seeded request's row instead of adding one.
        """
        import hashlib

        from repro.backend.array_syndrome import ArraySyndrome
        from repro.core.faults import clustered_faults, random_faults
        from repro.networks.registry import create_network
        from tests.service.canonical import reference_digest

        pinned = {
            ("random", "random", 5, 17):
                "4a83e33d32dd043f651e60811b2f43b668a60f5a001a4e1721714037ab80e8cc",
            ("clustered", "anti_mimic", 8, 4):
                "2e85176b0bf3e982d6666126cfc84fd0ca7043b84ea6f4879b784b49c9ac2f73",
        }
        place = {"random": random_faults, "clustered": clustered_faults}
        for (placement, behavior, dimension, seed), raw_sha256 in pinned.items():
            params = {"dimension": dimension}
            seeded = DiagnosisRequest.seeded(
                "hypercube", params, placement=placement, behavior=behavior, seed=seed
            )
            network = create_network("hypercube", **params)
            faults = place[placement](network, network.diagnosability(), seed=seed)
            syndrome = ArraySyndrome.from_faults(
                network, faults, behavior=behavior, seed=seed
            )
            raw = bytes(syndrome.buffer)
            assert hashlib.sha256(raw).hexdigest() == raw_sha256
            explicit = DiagnosisRequest.from_syndrome("hypercube", params, syndrome)
            store = ResultStore()
            [first] = _serve(DiagnosisService(store=store), seeded)
            [second] = _serve(DiagnosisService(store=store), explicit)
            digest = reference_digest(raw)
            assert first.syndrome_digest == second.syndrome_digest == digest
            assert second.faulty == first.faulty == tuple(sorted(faults))
            assert len(store) == 1 and store.request_count() == 2
            assert store.dedup_writes == 1

    def test_one_bad_request_never_fails_its_batch_mates(self):
        """Batches share execution, not fate (per-request error isolation)."""
        service = DiagnosisService()
        oversized = _request(0, fault_count=10_000)  # > num_nodes: ValueError
        healthy = _request(1)
        bad, good = _serve(service, oversized, healthy)
        assert not bad.ok and "ValueError" in bad.error
        assert good.ok
        assert good.faulty == run_direct(healthy).faulty
        # The direct pipeline agrees on the failure, too.
        assert run_direct(oversized).error == bad.error

    @pytest.mark.parametrize("fault_count", [2.5, True, "3"])
    def test_non_integer_fault_count_is_refused_before_its_batch(self, fault_count):
        """A request built in Python skips ``from_dict``; its constructor
        still refuses it, so it never reaches (and fails) a batch."""
        with pytest.raises(ValueError, match="fault_count"):
            _request(0, fault_count=fault_count)
        healthy = _request(1)
        [good] = _serve(DiagnosisService(), healthy)
        assert good.ok and good.faulty == run_direct(healthy).faulty

    def test_diagnosis_error_becomes_error_response(self):
        service = DiagnosisService()
        ok_request = _request(0)
        responses = _serve(service, DOOMED, ok_request)
        assert not responses[0].ok
        assert "DiagnosisError" in responses[0].error
        assert responses[0].faulty == ()
        assert responses[1].ok  # the failure never poisons other requests
        direct = run_direct(DOOMED)
        assert responses[0].error == direct.error

    def test_undiagnosable_instance_never_fails_other_requests(self):
        """Q_3 has no diagnosability: its batch answers with error
        responses, shaped like a syndrome-construction failure, and Q_7's
        batch in the same call answers as the direct pipeline does."""
        failed, answered = _serve(DiagnosisService(), Q3_REQUEST, Q7_REQUEST)
        assert failed.error == (
            "ValueError: diagnosability of Q_n under the MM model requires n >= 5"
        )
        assert (failed.syndrome_digest, failed.faulty, failed.healthy_root,
                failed.lookups, failed.num_probes, failed.partition_level,
                failed.num_faults_injected) == ("", (), None, 0, 0, None, None)
        assert run_direct(Q3_REQUEST).error == failed.error
        direct = run_direct(Q7_REQUEST)
        assert dataclasses.replace(
            answered, batch_size=direct.batch_size,
            elapsed_seconds=direct.elapsed_seconds,
        ) == direct

    def test_in_process_batches_never_recompile(self):
        service = DiagnosisService()
        _serve(service, *(_request(seed) for seed in range(5)))
        stats = service.stats()
        assert stats["worker_compiles"] == 0

    def test_batch_size_histogram_records_kernel_width(self):
        """A construction failure shrinks the stacked kernel's width; the
        batch-size histogram records the post-slicing kernel width, not the
        coalesced request count."""
        service = DiagnosisService()
        oversized = _request(0, fault_count=10_000)  # ValueError pre-kernel
        responses = _serve(service, oversized, _request(1), _request(2))
        assert not responses[0].ok and responses[1].ok and responses[2].ok
        stats = service.stats()
        assert stats["batches"] == 1
        assert stats["batch_size"]["count"] == 1
        assert stats["mean_batch_size"] == 2.0  # 3 coalesced, 2 diagnosed
        # coalescing telemetry still counts the full batch
        assert stats["coalesced_batches"] == 1


class TestStoreIntegration:
    def test_repeat_requests_hit_the_store(self):
        store = ResultStore()
        service = DiagnosisService(store=store)

        async def run():
            async with service:
                first = await service.submit(_request(3))
                second = await service.submit(_request(3))
                return first, second

        first, second = asyncio.run(run())
        assert first.source == "computed"
        assert second.source == "store"
        assert second.faulty == first.faulty
        assert service.stats()["store_hits"] == 1
        assert store.hits == 1

    def test_store_survives_service_restart(self, tmp_path):
        path = tmp_path / "results.db"
        first = _serve(DiagnosisService(store=ResultStore(path)), _request(5))[0]
        again = _serve(DiagnosisService(store=ResultStore(path)), _request(5))[0]
        assert again.source == "store"
        assert again.faulty == first.faulty

    def test_failed_diagnoses_are_stored_too(self):
        store = ResultStore()
        first = _serve(DiagnosisService(store=store), DOOMED)[0]
        again = _serve(DiagnosisService(store=store), DOOMED)[0]
        assert not first.ok and not again.ok
        assert again.source == "store"


class TestHashOnce:
    """A computed explicit request scans its buffer once per process path.

    The scan is :func:`repro.service.requests._nonzero_offsets`, the only
    place a digest reads a whole buffer it has no offsets for.  The counter
    logs the scanning process, so a pooled worker's scans show up too.
    """

    @staticmethod
    def _log_scans(monkeypatch, log):
        import os

        import repro.service.requests as requests

        scan = requests._nonzero_offsets

        def counted(view):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return scan(view)

        monkeypatch.setattr(requests, "_nonzero_offsets", counted)

    @staticmethod
    def _scans(log) -> list[int]:
        return [int(line) for line in log.read_text().split()] if log.exists() else []

    @staticmethod
    def _explicit(seed: int, dimension: int = 8) -> DiagnosisRequest:
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.core.faults import random_faults
        from repro.networks.registry import compiled_network

        network, csr = compiled_network("hypercube", dimension=dimension)
        faults = random_faults(network, network.diagnosability(), seed=seed)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
        return DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": dimension}, syndrome
        )

    @pytest.mark.parametrize("body", ["sparse", "dense"])
    def test_in_process_request_scans_once(self, monkeypatch, tmp_path, body):
        import os

        log = tmp_path / "scans.log"
        self._log_scans(monkeypatch, log)
        if body == "sparse":
            request = self._explicit(seed=1)
        else:  # all ones: the dense body, and a stored DiagnosisError
            request = DiagnosisRequest.from_syndrome(
                "hypercube", {"dimension": 6}, b"\x01" * (64 * 15)
            )
        store = ResultStore()
        [response] = _serve(DiagnosisService(store=store), request)
        request.describe()
        assert self._scans(log) == [os.getpid()]
        assert response.source == "computed"
        assert response.syndrome_digest.startswith(f"{body}-sha256:")
        assert len(store) == 1 and store.request_count() == 1

    def test_pooled_batch_scans_in_the_coordinator_only(self, monkeypatch, tmp_path):
        import os

        from repro.parallel import WorkerPool

        log = tmp_path / "scans.log"
        self._log_scans(monkeypatch, log)
        requests = [self._explicit(seed) for seed in (2, 3)]
        with WorkerPool(max_workers=1) as pool:  # forks after the patch
            service = DiagnosisService(pool=pool, store=ResultStore())
            responses = _serve(service, *requests)
            stats = service.stats()
        scans = self._scans(log)
        assert stats["pooled"] and stats["batches"] == 1
        assert scans == [os.getpid()] * len(requests)
        for request, response in zip(requests, responses):
            assert response.syndrome_digest == run_direct(request).syndrome_digest


class TestServedBatchesBuildNoSets:
    """A response carries the accusation set and counters only, so serving
    never builds a final run's grown set or tree (they are built on first
    read, and nothing on the serving path reads them)."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    def test_no_set_is_built(self, pooled, monkeypatch, tmp_path):
        import contextlib
        import os

        from repro.backend.array_syndrome import ArraySyndrome
        from repro.core.diagnosis import DiagnosisResult, GeneralDiagnoser
        from repro.core.set_builder import SetBuilderResult
        from repro.networks.registry import compiled_network
        from repro.parallel import WorkerPool

        log = tmp_path / "builds.log"

        def spy(cls, name):
            field = vars(cls)[name]
            build = field.build

            def logged(result):
                with open(log, "a") as out:
                    out.write(f"{os.getpid()} {name}\n")
                return build(result)

            monkeypatch.setattr(field, "build", logged)

        for name in ("nodes", "parent", "contributors"):
            spy(SetBuilderResult, name)
        for name in ("healthy_nodes", "tree_parent"):
            spy(DiagnosisResult, name)
        requests = [_request(seed) for seed in range(3)] + [_request(1, S5)]
        executor = WorkerPool(max_workers=1) if pooled else contextlib.nullcontext()
        with executor as pool:  # forks after the patch
            service = DiagnosisService(pool=pool)
            responses = _serve(service, *requests)
            stats = service.stats()
        assert stats["pooled"] == pooled and stats["batches"] == 2
        assert all(response.ok for response in responses)
        assert not log.exists()
        # The spy is live: a caller that reads the sets builds them.
        network, csr = compiled_network(Q6[0], **Q6[1])
        faults = PLACEMENTS["random"](network, network.diagnosability(), seed=0)
        result = GeneralDiagnoser(network).diagnose(
            ArraySyndrome.from_faults(csr, faults, seed=0)
        )
        assert result.healthy_nodes and log.read_text().split()[1] == "healthy_nodes"


class TestAdmissionControl:
    def test_overflow_requests_are_shed_deterministically(self):
        service = DiagnosisService(max_queue_depth=2)

        async def run():
            async with service:
                outcomes = await asyncio.gather(
                    *(service.submit(_request(seed)) for seed in range(5)),
                    return_exceptions=True,
                )
            return outcomes

        outcomes = asyncio.run(run())
        # gather submits in order within one tick: the first two take the
        # queue's slots, the remaining three shed — same split every run.
        assert [isinstance(o, RejectedError) for o in outcomes] == [
            False, False, True, True, True
        ]
        assert all(o.ok for o in outcomes[:2])
        stats = service.stats()
        assert stats["rejected"] == 3
        assert stats["requests"] == 5
        assert stats["computed"] == 2

    def test_rejection_carries_depth_and_limit(self):
        service = DiagnosisService(max_queue_depth=1)

        async def run():
            async with service:
                first = asyncio.create_task(service.submit(_request(0)))
                await asyncio.sleep(0)
                with pytest.raises(RejectedError) as excinfo:
                    await service.submit(_request(1))
                await first
                return excinfo.value

        error = asyncio.run(run())
        assert error.depth == 1 and error.limit == 1
        assert "queue full" in str(error)

    def test_store_hits_and_coalesced_joins_are_never_shed(self):
        store = ResultStore()

        async def run():
            async with DiagnosisService(store=store) as warm:
                await warm.submit(_request(0))
            service = DiagnosisService(store=store, max_queue_depth=1)
            async with service:
                filler = asyncio.create_task(service.submit(_request(1)))
                await asyncio.sleep(0)  # filler takes the only slot
                duplicate = asyncio.create_task(service.submit(_request(1)))
                await asyncio.sleep(0)
                stored = await service.submit(_request(0))  # store hit
                joined = await duplicate
                await filler
                return stored, joined

        stored, joined = asyncio.run(run())
        assert stored.source == "store"
        assert joined.source == "coalesced"

    def test_queue_drains_and_admits_again(self):
        service = DiagnosisService(max_queue_depth=1)

        async def run():
            async with service:
                first = await service.submit(_request(0))
                second = await service.submit(_request(1))
            return first, second

        first, second = asyncio.run(run())
        assert first.ok and second.ok  # sequential: never over the bound
        assert service.stats()["rejected"] == 0

    def test_unbounded_by_default(self):
        service = DiagnosisService()
        responses = _serve(service, *(_request(seed) for seed in range(20)))
        assert all(r.ok for r in responses)
        assert service.stats()["rejected"] == 0

    def test_invalid_max_queue_depth_rejected(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            DiagnosisService(max_queue_depth=0)


class TestTenantAdmission:
    def test_tenant_quota_sheds_deterministically(self):
        service = DiagnosisService(max_queue_per_tenant=2)

        async def run():
            async with service:
                hot = [_request(seed, tenant="hot") for seed in range(5)]
                cold = [_request(seed, S5, tenant="cold") for seed in range(2)]
                return await asyncio.gather(
                    *(service.submit(r) for r in hot + cold),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(run())
        # Submission order within one tick: hot takes its two quota slots,
        # sheds the rest; cold's quota is untouched by hot's overflow.
        assert [isinstance(o, RejectedError) for o in outcomes] == [
            False, False, True, True, True, False, False
        ]
        stats = service.stats()
        assert stats["tenants"]["hot"]["admitted"] == 2
        assert stats["tenants"]["hot"]["rejected"] == 3
        assert stats["tenants"]["cold"]["admitted"] == 2
        assert stats["tenants"]["cold"]["rejected"] == 0

    def test_tenant_rejection_names_the_tenant(self):
        service = DiagnosisService(max_queue_per_tenant=1)

        async def run():
            async with service:
                first = asyncio.create_task(
                    service.submit(_request(0, tenant="acme"))
                )
                await asyncio.sleep(0)
                with pytest.raises(RejectedError) as excinfo:
                    await service.submit(_request(1, tenant="acme"))
                await first
                return excinfo.value

        error = asyncio.run(run())
        assert error.scope == "tenant"
        assert error.tenant == "acme"
        assert error.depth == 1 and error.limit == 1
        assert "acme" in str(error) and "max_queue_per_tenant" in str(error)

    def test_global_bound_checked_before_tenant_quota(self):
        service = DiagnosisService(max_queue_depth=1, max_queue_per_tenant=5)

        async def run():
            async with service:
                first = asyncio.create_task(
                    service.submit(_request(0, tenant="a"))
                )
                await asyncio.sleep(0)
                with pytest.raises(RejectedError) as excinfo:
                    await service.submit(_request(1, tenant="b"))
                await first
                return excinfo.value

        error = asyncio.run(run())
        assert error.scope == "global"
        assert error.tenant is None

    def test_store_hits_never_consume_tenant_quota(self):
        store = ResultStore()

        async def run():
            async with DiagnosisService(store=store) as warm:
                await warm.submit(_request(0, tenant="hot"))
            service = DiagnosisService(store=store, max_queue_per_tenant=1)
            async with service:
                filler = asyncio.create_task(
                    service.submit(_request(1, tenant="hot"))
                )
                await asyncio.sleep(0)  # filler takes hot's only slot
                stored = await service.submit(_request(0, tenant="hot"))
                await filler
            return stored, service.stats()

        stored, stats = asyncio.run(run())
        assert stored.source == "store"
        assert stats["tenants"]["hot"]["rejected"] == 0
        assert stats["tenants"]["hot"]["store_hits"] == 1

    def test_coalesced_joins_never_consume_tenant_quota(self):
        service = DiagnosisService(max_queue_per_tenant=1)

        async def run():
            async with service:
                filler = asyncio.create_task(
                    service.submit(_request(1, tenant="hot"))
                )
                await asyncio.sleep(0)  # filler takes hot's only slot
                # The identical request joins in flight: no slot consumed,
                # even across a tenant boundary.
                same_tenant = asyncio.create_task(
                    service.submit(_request(1, tenant="hot"))
                )
                cross_tenant = asyncio.create_task(
                    service.submit(_request(1, tenant="other"))
                )
                await asyncio.sleep(0)
                # A *distinct* hot request is over quota and sheds.
                with pytest.raises(RejectedError):
                    await service.submit(_request(2, tenant="hot"))
                return await filler, await same_tenant, await cross_tenant

        filler, same_tenant, cross_tenant = asyncio.run(run())
        assert filler.source == "computed"
        assert same_tenant.source == "coalesced"
        assert cross_tenant.source == "coalesced"
        stats = service.stats()
        assert stats["tenants"]["hot"]["coalesced"] == 1
        assert stats["tenants"]["other"]["coalesced"] == 1
        assert stats["tenants"]["other"]["rejected"] == 0

    def test_stats_expose_tenant_configuration(self):
        service = DiagnosisService(
            max_queue_per_tenant=4, tenant_weights={"hot": 3}
        )
        responses = _serve(service, _request(0, tenant="hot"))
        assert responses[0].ok
        stats = service.stats()
        assert stats["max_queue_per_tenant"] == 4
        assert stats["tenant_weights"] == {"hot": 3}
        assert stats["pending_by_tenant"] == {}  # drained
        assert stats["tenants"]["hot"]["served"] == 1

    def test_weighted_rotation_orders_backlogged_batches(self):
        # Two backlogged tenants, weight 2:1, one batch of width 3 per
        # dispatch: each batch takes two hot slots then one cold slot.
        service = DiagnosisService(
            max_batch_size=3, tenant_weights={"hot": 2}
        )

        async def run():
            async with service:
                requests = []
                for seed in range(4):
                    requests.append(_request(seed, tenant="hot"))
                    requests.append(_request(10 + seed, tenant="cold"))
                return await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert all(r.batch_size <= 3 for r in responses)
        # 8 requests in width-3 batches: the rotation fills 3 batches.
        assert service.stats()["batches"] == 3

    def test_invalid_tenant_configuration_rejected(self):
        with pytest.raises(ValueError, match="max_queue_per_tenant"):
            DiagnosisService(max_queue_per_tenant=0)
        with pytest.raises(ValueError, match="weight"):
            DiagnosisService(tenant_weights={"a": 0})


class TestCancellation:
    def test_cancelling_one_client_leaves_the_batch_intact(self):
        service = DiagnosisService()

        async def run():
            async with service:
                doomed_task = asyncio.create_task(service.submit(_request(0)))
                survivor_task = asyncio.create_task(service.submit(_request(1)))
                await asyncio.sleep(0)  # both enqueue before the batch forms
                doomed_task.cancel()
                survivor = await survivor_task
                with pytest.raises(asyncio.CancelledError):
                    await doomed_task
                return survivor

        survivor = asyncio.run(run())
        assert survivor.ok
        assert survivor.faulty == run_direct(_request(1)).faulty

    def test_cancelling_a_coalesced_waiter_keeps_the_computation(self):
        service = DiagnosisService()

        async def run():
            async with service:
                original = asyncio.create_task(service.submit(_request(2)))
                await asyncio.sleep(0)
                duplicate = asyncio.create_task(service.submit(_request(2)))
                await asyncio.sleep(0)
                duplicate.cancel()
                response = await original
                with pytest.raises(asyncio.CancelledError):
                    await duplicate
                return response

        response = asyncio.run(run())
        assert response.ok and response.source == "computed"


class TestLifecycleAndValidation:
    def test_closed_service_refuses(self):
        async def run():
            service = DiagnosisService()
            await service.close()
            with pytest.raises(RuntimeError, match="closed"):
                await service.submit(_request(0))

        asyncio.run(run())

    def test_unknown_family_rejected_before_enqueue(self):
        with pytest.raises(ValueError, match="unknown network family"):
            _serve(DiagnosisService(),
                   DiagnosisRequest(family="mesh", params=(("dimension", 6),)))

    def test_bad_placement_and_behavior_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            _serve(DiagnosisService(), _request(0, placement="ring"))
        with pytest.raises(ValueError, match="unknown behavior"):
            _serve(DiagnosisService(), _request(0, behavior="chaotic"))
        with pytest.raises(ValueError, match="fault_count"):
            _serve(DiagnosisService(), _request(0, fault_count=0))

    @pytest.mark.parametrize("field", ["family", "placement", "behavior"])
    def test_non_string_field_built_in_python_rejected(self, field):
        # from_dict refuses these on the wire; a request built in Python
        # meets the same check before any registry lookup hashes the value.
        with pytest.raises(ValueError, match=f"'{field}' must be a string"):
            _serve(DiagnosisService(),
                   dataclasses.replace(_request(0), **{field: [1]}))

    def test_oversized_topology_refused_at_admission(self, monkeypatch):
        """Nothing over the node cap is queued, let alone built."""
        from repro.service import executor

        def never(*args, **kwargs):
            raise AssertionError("an oversized topology was built")

        monkeypatch.setattr(executor, "create_network", never)
        service = DiagnosisService()
        with pytest.raises(ValueError, match="nodes"):
            _serve(service, DiagnosisRequest.seeded("hypercube", {"dimension": 30}))
        assert service.stats()["batches"] == 0

    @pytest.mark.parametrize("params", [{"n": 65536, "k": 1}, {"n": 256, "k": 2}])
    def test_dense_topology_refused_without_building(self, params, monkeypatch):
        """A topology within the node cap whose pair layout is not: the
        admission check and :func:`resolve_topology` both refuse it."""
        from repro.service import executor

        def never(*args, **kwargs):
            raise AssertionError("a dense topology was built")

        monkeypatch.setattr(executor, "create_network", never)
        assert FAMILIES["arrangement"].node_count(**params) <= executor.MAX_TOPOLOGY_NODES
        with pytest.raises(ValueError, match="comparison pairs"):
            executor.resolve_topology("arrangement", params)
        service = DiagnosisService()
        with pytest.raises(ValueError, match="comparison pairs"):
            _serve(service, DiagnosisRequest.seeded("arrangement", params))
        assert service.stats()["batches"] == 0

    def test_placements_are_one_table(self):
        from repro.core import faults
        from repro.experiments import trials
        from repro.service import executor

        assert executor.PLACEMENTS is faults.PLACEMENTS is trials.PLACEMENTS

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DiagnosisService(max_batch_size=0)

    def test_topology_cache_eviction_under_pressure(self):
        service = DiagnosisService(topology_cache_capacity=1)
        _serve(service, _request(0, Q6), _request(0, S5), _request(1, Q6))
        cache = service.stats()["topology_cache"]
        assert cache["evictions"] >= 1
        assert cache["size"] == 1


class TestWorkConservingDispatch:
    """Batches form when an execution slot frees, never when a timer fires."""

    @pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
    def test_idle_service_starts_a_lone_request_without_a_timed_wait(
        self, monkeypatch, pooled
    ):
        import contextlib

        from repro.parallel import WorkerPool
        from repro.service import service as service_module

        events = []
        sleep, wait_for = asyncio.sleep, asyncio.wait_for

        async def logged_sleep(delay, *args, **kwargs):
            events.append(("sleep", delay))
            return await sleep(delay, *args, **kwargs)

        async def logged_wait_for(awaitable, timeout):
            events.append(("wait_for", timeout))
            return await wait_for(awaitable, timeout)

        def entering(run):
            def entered(*args):
                events.append(("executor", None))
                return run(*args)
            return entered

        monkeypatch.setattr(asyncio, "sleep", logged_sleep)
        monkeypatch.setattr(asyncio, "wait_for", logged_wait_for)
        executor = WorkerPool(max_workers=1) if pooled else contextlib.nullcontext()
        with executor as pool:
            if pooled:
                monkeypatch.setattr(pool, "submit", entering(pool.submit))
            else:
                monkeypatch.setattr(service_module, "run_batch_local",
                                    entering(service_module.run_batch_local))
            (response,) = _serve(DiagnosisService(pool=pool), _request(0))
        assert response.ok and response.batch_size == 1
        before = events[:events.index(("executor", None))]
        assert not [e for e in before if e[0] == "wait_for" or e[1]], before

    def test_arrivals_while_the_executor_is_busy_form_the_next_batch(
        self, monkeypatch
    ):
        import threading

        from repro.service import service as service_module

        entered, release = threading.Event(), threading.Event()
        run_batch_local = service_module.run_batch_local

        def first_batch_held(*args):
            if not entered.is_set():
                entered.set()
                release.wait(10)
            return run_batch_local(*args)

        monkeypatch.setattr(service_module, "run_batch_local", first_batch_held)
        service = DiagnosisService(max_batch_size=3)

        async def run():
            async with service:
                blocker = asyncio.create_task(service.submit(_request(0)))
                deadline = asyncio.get_running_loop().time() + 10
                while not entered.is_set():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.001)
                # Five arrivals on another topology, each in its own tick,
                # while the only slot is busy: none is taken before it frees.
                arrivals = []
                for seed in range(5):
                    arrivals.append(
                        asyncio.create_task(service.submit(_request(seed, S5)))
                    )
                    for _ in range(3):
                        await asyncio.sleep(0)
                assert service.stats()["pending"] == 5
                release.set()
                return await blocker, await asyncio.gather(*arrivals)

        blocker, arrivals = asyncio.run(run())
        assert blocker.batch_size == 1
        assert [r.batch_size for r in arrivals] == [3, 3, 3, 2, 2]
        assert all(r.ok for r in arrivals)
        assert service.stats()["batches"] == 3

    def test_pooled_batches_in_flight_never_exceed_the_workers(self, monkeypatch):
        import threading

        from repro.parallel import WorkerPool

        instances = [Q6, S5, ("pancake", {"n": 5}), ("hypercube", {"dimension": 5}),
                     ("star", {"n": 4})]
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]

        def done(_future):
            with lock:
                in_flight[0] -= 1

        with WorkerPool(max_workers=2) as pool:
            submit = pool.submit

            def counted(*args):
                with lock:
                    in_flight[0] += 1
                    peak[0] = max(peak[0], in_flight[0])
                future = submit(*args)
                future.add_done_callback(done)
                return future

            monkeypatch.setattr(pool, "submit", counted)
            service = DiagnosisService(pool=pool)
            responses = _serve(service, *(
                _request(seed, instance)
                for instance in instances for seed in range(2)
            ))
        assert all(r.ok for r in responses)
        assert service.stats()["batches"] == len(instances)
        assert 1 <= peak[0] <= pool.max_workers


class TestPooledService:
    def test_evictions_release_pool_segments(self):
        """A bounded cache must bound /dev/shm too, not just coordinator heap."""
        from repro.parallel import WorkerPool

        topologies = [
            ("hypercube", {"dimension": 5}),
            ("star", {"n": 5}),
            ("pancake", {"n": 5}),
            ("hypercube", {"dimension": 6}),
        ]
        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool, topology_cache_capacity=1)

            async def run():
                async with service:
                    for instance in topologies:
                        response = await service.submit(_request(0, instance))
                        assert response.ok
                    return len(pool._segments)

            live_segments = asyncio.run(run())
        # One cached topology + nothing retired: evicted segments were
        # unlinked as their batches completed, not pinned until shutdown.
        assert live_segments <= 1
        assert service.stats()["topology_cache"]["evictions"] == len(topologies) - 1

    def test_fork_inherited_topology_serves_without_compiling(self):
        """Workers that inherited a compiled CSR through fork keep it."""
        from repro.backend.csr import compile_network
        from repro.networks.registry import cached_network, clear_network_cache
        from repro.parallel import WorkerPool

        # Compile in the parent via the registry memo *before* the pool
        # forks, so the workers inherit the compiled adjacency.
        clear_network_cache()
        compile_network(cached_network("hypercube", dimension=6))
        with WorkerPool(max_workers=1) as pool:
            pool.submit(pow, 2, 2).result()  # fork now
            service = DiagnosisService(pool=pool)
            responses = _serve(service, _request(0), _request(1))
            stats = service.stats()
        assert all(r.ok for r in responses)
        assert stats["worker_compiles"] == 0

    def test_capacity_zero_pooled_service_leaks_no_segments(self):
        """A service without a topology cache (``serve --cache-capacity 0``)
        must not pin one shm segment per batch."""
        from repro.parallel import WorkerPool

        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool, topology_cache_capacity=0)

            async def run():
                async with service:
                    for seed in range(4):
                        assert (await service.submit(_request(seed))).ok
                    return len(pool._segments), len(service._topology_locks)

            segments, locks = asyncio.run(run())
        assert segments == 0  # every batch's segment was retired and released
        assert locks == 0

    def test_empty_digest_failures_are_not_stored(self):
        """Pre-syndrome failures have no content address; storing them under
        the empty digest would make unrelated errors collide."""
        store = ResultStore()
        bad_a = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00" * 7)
        bad_b = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00" * 13)
        first = _serve(DiagnosisService(store=store), bad_a, bad_b)
        again = _serve(DiagnosisService(store=store), bad_a, bad_b)
        assert [r.error for r in again] == [r.error for r in first]
        assert "got 7" in again[0].error and "got 13" in again[1].error
        assert all(r.source != "store" for r in again)
        assert len(store) == 0

    def test_pooled_matches_in_process_with_zero_worker_compiles(self):
        from repro.parallel import WorkerPool

        requests = [_request(seed) for seed in range(3)] + [_request(0, S5)]
        plain = _serve(DiagnosisService(), *requests)
        with WorkerPool(max_workers=2) as pool:
            service = DiagnosisService(pool=pool)
            pooled = _serve(service, *requests)
            stats = service.stats()
        assert [r.faulty for r in pooled] == [r.faulty for r in plain]
        assert [r.lookups for r in pooled] == [r.lookups for r in plain]
        assert stats["worker_compiles"] == 0

    def test_pooled_explicit_syndromes_travel_shared_memory(self, q5):
        """Explicit syndrome buffers ship in a reused staging segment with
        (position, offset, size, digest) spans — never pickled per task —
        the responses stay identical to the direct pipeline, and the
        service's close releases its staging and topology segments."""
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.backend.csr import compile_network
        from repro.core.faults import random_faults
        from repro.parallel import WorkerPool

        csr = compile_network(q5)
        explicit = []
        for seed in (3, 4):
            faults = random_faults(q5, 3, seed=seed)
            syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
            explicit.append(
                DiagnosisRequest.from_syndrome(
                    "hypercube", {"dimension": 5}, syndrome
                )
            )
        mixed = [explicit[0], _request(7, ("hypercube", {"dimension": 5})),
                 explicit[1]]
        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool)
            responses = _serve(service, *mixed)
            stats = service.stats()
            # the service close released its staging segment and retired
            # the topology segment; a leaked one would still be registered
            segments = len(pool._segments)
        assert segments == 0
        for request, response in zip(mixed, responses):
            direct = run_direct(request)
            assert response.faulty == direct.faulty
            assert response.lookups == direct.lookups
            assert response.syndrome_digest == direct.syndrome_digest
        assert stats["worker_compiles"] == 0

    def test_pooled_wrong_size_explicit_buffer_fails_per_item(self):
        """A bad span-shipped buffer raises inside the worker exactly like
        the in-process path — and never fails its batch mates."""
        from repro.parallel import WorkerPool

        bad = DiagnosisRequest.from_syndrome(
            "hypercube", {"dimension": 6}, b"\x01" * 7
        )
        good = _request(1)
        with WorkerPool(max_workers=1) as pool:
            service = DiagnosisService(pool=pool)
            bad_r, good_r = _serve(service, bad, good)
        assert not bad_r.ok and "ValueError" in bad_r.error
        assert "got 7" in bad_r.error
        assert good_r.ok
        assert good_r.faulty == run_direct(good).faulty
        assert bad_r.error == run_direct(bad).error


def _explicit(seed: int, instance=Q6) -> DiagnosisRequest:
    """A seeded request's syndrome, sent as an explicit buffer."""
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.networks.registry import compiled_network

    family, params = instance
    network, csr = compiled_network(family, **params)
    faults = PLACEMENTS["random"](network, network.diagnosability(), seed=seed)
    syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
    return DiagnosisRequest.from_syndrome(family, params, syndrome)


#: Inherited by the pool's forked workers: both batches must be running
#: before either may finish (set per test, before the pool forks).
_OVERLAP = None


def _overlapping_batch_task(*args):
    """The pool batch task, held until the other batch is in flight too."""
    from repro.service.executor import run_batch_task

    _OVERLAP.wait(timeout=30)
    return run_batch_task(*args)


def _assert_direct(requests, responses):
    for request, response in zip(requests, responses):
        direct = run_direct(request)
        assert response.ok
        assert response.faulty == direct.faulty
        assert response.lookups == direct.lookups
        assert response.syndrome_digest == direct.syndrome_digest


class TestSyndromeStaging:
    """Explicit syndromes reuse one staging segment per in-flight batch."""

    @staticmethod
    def _instrument(monkeypatch, pool):
        """Log every published buffer and every in-flight staging handle."""
        import threading

        lock = threading.Lock()
        log = {"published": [], "in_flight": [], "peak": 0, "overlaps": []}
        publish_buffer, submit = pool.publish_buffer, pool.submit

        def published(data):
            handle = publish_buffer(data)
            log["published"].append(handle)
            return handle

        def submitted(fn, *args):
            staging = args[4]
            with lock:
                if staging is not None:
                    log["overlaps"].append(
                        [h.name for h in log["in_flight"]] + [staging.name]
                    )
                log["in_flight"].append(staging)
                log["peak"] = max(log["peak"], len(log["in_flight"]))
            future = submit(fn, *args)

            def done(_future):
                with lock:
                    log["in_flight"].remove(staging)

            future.add_done_callback(done)
            return future

        monkeypatch.setattr(pool, "publish_buffer", published)
        monkeypatch.setattr(pool, "submit", submitted)
        return log

    def test_batches_reuse_at_most_one_segment_per_batch_in_flight(
        self, monkeypatch
    ):
        from repro.parallel import WorkerPool

        requests = [_explicit(seed, (Q6, CQ6)[seed % 2]) for seed in range(8)]
        with WorkerPool(max_workers=2) as pool:
            log = self._instrument(monkeypatch, pool)
            # Batches of one over two topologies: each topology's dispatcher
            # runs one batch at a time, so the two run side by side.
            service = DiagnosisService(pool=pool, max_batch_size=1)

            async def run():
                async with service:
                    first = await service.submit_many(requests)
                    again = await service.serve_sequence(requests[:3])
                    return first + again

            responses = asyncio.run(run())
            live = len(pool._segments)
        assert service.stats()["batches"] == len(responses) == 11
        assert 1 <= len(log["published"]) <= log["peak"] <= pool.max_workers
        assert live == 0  # close() released the staging segments
        _assert_direct(requests + requests[:3], responses)

    def test_larger_batch_grows_the_segment_and_unlinks_the_old_one(
        self, monkeypatch
    ):
        from multiprocessing import shared_memory

        from repro.parallel import WorkerPool

        small = _explicit(1, ("hypercube", {"dimension": 5}))
        large = _explicit(2)
        with WorkerPool(max_workers=1) as pool:
            log = self._instrument(monkeypatch, pool)
            service = DiagnosisService(pool=pool)

            async def run():
                async with service:
                    responses = [await service.submit(small)]
                    responses.append(await service.submit(large))
                    grown = [h.name for h in log["published"]]
                    responses.append(await service.submit(small))
                    existing = []
                    for name in grown:
                        try:
                            shared_memory.SharedMemory(name=name).close()
                            existing.append(name)
                        except FileNotFoundError:
                            pass
                    return responses, existing

            responses, existing = asyncio.run(run())
        first, second = log["published"]
        assert first.size < len(large.syndrome_bytes) <= second.size
        assert existing == [second.name]  # the outgrown segment is gone
        _assert_direct([small, large, small], responses)

    def test_concurrent_batches_never_share_a_segment(self, monkeypatch):
        from repro.parallel import WorkerPool
        from repro.service import service as service_module

        import multiprocessing
        import sys

        monkeypatch.setattr(
            sys.modules[__name__], "_OVERLAP",
            multiprocessing.get_context("fork").Barrier(2),
        )
        monkeypatch.setattr(
            service_module, "run_batch_task", _overlapping_batch_task
        )
        requests = [_explicit(seed, (Q6, CQ6)[seed % 2]) for seed in range(4)]
        with WorkerPool(max_workers=2) as pool:
            log = self._instrument(monkeypatch, pool)
            service = DiagnosisService(pool=pool, max_batch_size=1)
            responses = _serve(service, *requests)
        assert log["peak"] == 2
        for names in log["overlaps"]:
            assert len(set(names)) == len(names), names
        assert any(len(names) == 2 for names in log["overlaps"])
        _assert_direct(requests, responses)
