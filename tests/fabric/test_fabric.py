"""Coordinator + worker fabric: dispatch, retry, requeue, dedup, fallback.

Everything here runs in-process (one event loop, real sockets on
127.0.0.1) so death and fault timing can be orchestrated deterministically;
the subprocess SIGKILL campaign lives in ``test_chaos.py``.  The payoff
test is the differential sweep: for **every registry family**, a service
dispatching to two workers behind a drop/duplicate/delay channel must
produce responses bit-identical to the direct pipeline, with the store
holding exactly one row per unique request.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.distributed.events import ChannelConfig
from repro.fabric import FabricCoordinator, FabricUnavailableError, run_worker
from repro.parallel import spawn_seeds
from repro.service import DiagnosisRequest, DiagnosisService, ResultStore
from repro.service.executor import run_direct
from tests.conftest import TINY_PARAMS

#: Short but unhurried timings: lease retries engage fast without turning a
#: loaded CI machine's scheduling hiccups into spurious worker deaths.
FAST = dict(heartbeat_interval=0.2, lease_timeout=1.0,
            backoff_base=0.01, backoff_cap=0.05)


@contextlib.asynccontextmanager
async def fabric(worker_configs, *, service_kwargs=None, **coord_kwargs):
    """A running coordinator + workers + service, torn down afterwards.

    ``worker_configs`` maps worker id -> ChannelConfig | None.  Yields
    ``(coordinator, service, workers)`` where ``workers`` maps id ->
    ``(task, stop_event)`` so tests can kill or stop individuals.
    """
    merged = {**FAST, **coord_kwargs}
    coordinator = FabricCoordinator(port=0, **merged)
    await coordinator.start()
    service = DiagnosisService(
        remote=coordinator, **(service_kwargs or {})
    )
    workers: dict[str, tuple[asyncio.Task, asyncio.Event]] = {}
    try:
        for worker_id, config in worker_configs.items():
            workers[worker_id] = await start_worker(
                coordinator, worker_id, config
            )
        yield coordinator, service, workers
    finally:
        for task, stop in workers.values():
            stop.set()
        await asyncio.gather(
            *(task for task, _ in workers.values()), return_exceptions=True
        )
        await service.close()
        await coordinator.close()


async def start_worker(coordinator, worker_id, config=None, *,
                       delay_unit=0.005):
    """Start one in-process worker and wait for its welcome handshake."""
    ready = asyncio.Event()
    stop = asyncio.Event()
    task = asyncio.create_task(run_worker(
        "127.0.0.1", coordinator.port,
        worker_id=worker_id,
        fault_config=config,
        delay_unit=delay_unit,
        ready=lambda _worker: ready.set(),
        stop=stop,
    ))
    await asyncio.wait_for(ready.wait(), 10)
    return task, stop


def _requests(family="hypercube", count=4, base_seed=0):
    params = TINY_PARAMS[family]
    return [
        DiagnosisRequest.seeded(family, params, seed=seed)
        for seed in spawn_seeds(base_seed, count)
    ]


def _assert_matches_direct(requests, responses):
    for request, response in zip(requests, responses):
        direct = run_direct(request)
        assert (
            response.faulty,
            response.healthy_root,
            response.lookups,
            response.syndrome_digest,
            response.error,
        ) == (
            direct.faulty,
            direct.healthy_root,
            direct.lookups,
            direct.syndrome_digest,
            direct.error,
        ), f"fabric response diverged on {request.describe()}"


class TestDispatch:
    def test_single_worker_serves_batches(self):
        async def scenario():
            async with fabric({"w1": None}) as (coordinator, service, _):
                requests = _requests(count=6)
                responses = await service.submit_many(requests)
                _assert_matches_direct(requests, responses)
                snapshot = service.stats()
                row = snapshot["workers"]["w1"]
                assert row["dispatched"] >= 1
                assert row["completed"] == row["dispatched"]
                assert row["requeued"] == 0
                assert snapshot["fabric"]["workers_live"] == 1
                assert snapshot["fabric"]["outstanding_leases"] == 0

        asyncio.run(scenario())

    def test_round_robin_spreads_leases_across_workers(self):
        async def scenario():
            async with fabric({"w1": None, "w2": None}) as (
                coordinator, service, _,
            ):
                # Distinct topologies -> distinct batches -> both workers
                # must see work under round-robin dispatch.
                requests = []
                for family in ("hypercube", "star", "pancake", "mobius_cube"):
                    requests.extend(_requests(family, count=2))
                responses = await service.submit_many(requests)
                _assert_matches_direct(requests, responses)
                workers = service.stats()["workers"]
                assert workers["w1"]["dispatched"] >= 1
                assert workers["w2"]["dispatched"] >= 1

        asyncio.run(scenario())

    def test_no_workers_falls_back_to_local_execution(self):
        async def scenario():
            coordinator = FabricCoordinator(port=0, **{**FAST, "lease_timeout": 0.1})
            await coordinator.start()
            service = DiagnosisService(remote=coordinator)
            try:
                # has_workers() is False -> the service never even waits on
                # the fabric; the local path answers.
                requests = _requests(count=3)
                responses = await service.submit_many(requests)
                _assert_matches_direct(requests, responses)
                assert service.stats()["workers"] == {}
            finally:
                await service.close()
                await coordinator.close()

        asyncio.run(scenario())

    def test_execute_without_workers_raises_unavailable(self):
        async def scenario():
            coordinator = FabricCoordinator(port=0, **{**FAST, "lease_timeout": 0.1})
            await coordinator.start()
            try:
                with pytest.raises(FabricUnavailableError):
                    await coordinator.execute("t", _requests(count=1))
            finally:
                await coordinator.close()

        asyncio.run(scenario())

    def test_closed_coordinator_raises_unavailable(self):
        async def scenario():
            coordinator = FabricCoordinator(port=0, **FAST)
            await coordinator.start()
            await coordinator.close()
            with pytest.raises(FabricUnavailableError):
                await coordinator.execute("t", _requests(count=1))

        asyncio.run(scenario())


class TestFailureRecovery:
    def test_worker_death_mid_lease_requeues_to_survivor(self):
        async def scenario():
            # w1 delays every result by ~1s (latency fixed:201 at 5ms/round);
            # leases land on it first, then it dies mid-flight.
            slow = ChannelConfig(latency="fixed:201", seed=1)
            async with fabric(
                {"w1": slow}, lease_timeout=5.0,
            ) as (coordinator, service, workers):
                requests = _requests(count=4)
                submission = asyncio.create_task(
                    service.submit_many(requests)
                )
                # Wait until the lease is actually in flight on w1.
                deadline = asyncio.get_running_loop().time() + 5
                while not coordinator.stats()["outstanding_leases"]:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                _, w2_stop = await start_worker(coordinator, "w2")
                # SIGKILL-equivalent for an in-process worker: cancel the
                # task; its socket closes abruptly and the coordinator sees
                # EOF with the lease unanswered.
                task, _ = workers["w1"]
                task.cancel()
                responses = await asyncio.wait_for(submission, 30)
                _assert_matches_direct(requests, responses)
                rows = service.stats()["workers"]
                assert rows["w1"]["requeued"] >= 1
                assert rows["w1"]["evictions"] == 1
                assert rows["w2"]["completed"] >= 1
                assert not coordinator.registry.is_live("w1")
                w2_stop.set()

        asyncio.run(scenario())

    def test_heartbeat_silence_sweeps_the_worker_dead(self):
        async def scenario():
            async with fabric({}) as (coordinator, service, _):
                # A worker that says hello and then goes silent (no
                # heartbeats): the sweeper must declare it dead.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", coordinator.port
                )
                from repro.fabric import read_frame, write_frame

                await write_frame(writer, {
                    "kind": "hello", "worker": "mute", "pid": 0,
                    "protocol": 1,
                })
                welcome = await read_frame(reader)
                assert welcome["kind"] == "welcome"
                deadline = asyncio.get_running_loop().time() + 10
                while coordinator.registry.is_live("mute"):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                assert service.stats()["workers"]["mute"]["evictions"] == 1
                writer.close()

        asyncio.run(scenario())

    def test_lost_leases_are_retried_until_served(self):
        async def scenario():
            # Half the data-plane frames vanish; the coordinator's lease
            # timeout plus retry must still land every batch.
            lossy = ChannelConfig(loss_rate=0.5, seed=5)
            async with fabric(
                {"w1": lossy}, lease_timeout=0.3,
            ) as (coordinator, service, _):
                requests = _requests(count=6)
                responses = await asyncio.wait_for(
                    service.submit_many(requests), 60
                )
                _assert_matches_direct(requests, responses)

        asyncio.run(scenario())

    def test_duplicated_frames_are_deduped(self):
        async def scenario():
            # Duplicate-heavy channel: leases execute twice, results arrive
            # twice — exactly one completion must win per lease.
            noisy = ChannelConfig(duplicate_rate=0.9, seed=3)
            async with fabric({"w1": noisy}) as (coordinator, service, _):
                total = 0
                for family in ("hypercube", "star", "pancake"):
                    requests = _requests(family, count=3)
                    total += len(requests)
                    responses = await service.submit_many(requests)
                    _assert_matches_direct(requests, responses)
                stats = coordinator.stats()
                assert stats["duplicate_completions"] >= 1
                snapshot = service.stats()
                assert snapshot["requests"] == total
                assert snapshot["computed"] == total

        asyncio.run(scenario())

    def test_worker_rejoin_bumps_generation_and_serves_again(self):
        async def scenario():
            async with fabric({"w1": None}) as (coordinator, service, workers):
                first = _requests(count=2)
                _assert_matches_direct(first, await service.submit_many(first))
                assert coordinator.registry.generation("w1") == 1
                task, stop = workers["w1"]
                stop.set()
                await task
                deadline = asyncio.get_running_loop().time() + 5
                while coordinator.has_workers():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                workers["w1"] = await start_worker(coordinator, "w1")
                assert coordinator.registry.generation("w1") == 2
                second = _requests(count=2, base_seed=99)
                _assert_matches_direct(
                    second, await service.submit_many(second)
                )
                assert service.stats()["workers"]["w1"]["completed"] >= 2

        asyncio.run(scenario())

    def test_unavailable_fabric_falls_back_midstream(self):
        async def scenario():
            # The lone worker dies with nothing to replace it: the service
            # must fall back to local execution, losing no requests.
            async with fabric(
                {"w1": None}, lease_timeout=0.2, max_attempts=2,
            ) as (coordinator, service, workers):
                warm = _requests(count=2)
                _assert_matches_direct(warm, await service.submit_many(warm))
                task, _ = workers["w1"]
                task.cancel()
                deadline = asyncio.get_running_loop().time() + 5
                while coordinator.has_workers():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                cold = _requests(count=3, base_seed=7)
                responses = await asyncio.wait_for(
                    service.submit_many(cold), 30
                )
                _assert_matches_direct(cold, responses)

        asyncio.run(scenario())


class TestFaultyChannelDifferential:
    def test_lossy_dup_delay_fabric_matches_direct_on_every_family(
        self, tiny_network
    ):
        """The acceptance pin: two workers behind a drop/duplicate/delay
        channel, responses bit-identical to the direct pipeline, and the
        store holding exactly one row per unique request."""
        family = tiny_network.family
        params = TINY_PARAMS[family]
        base = sum(ord(c) for c in family)
        requests = [
            DiagnosisRequest.seeded(
                family, params, placement=placement, seed=seed
            )
            for seed in spawn_seeds(base, 2)
            for placement in ("random", "clustered")
        ]
        requests += requests[:2]  # repeats exercise store/coalescing too
        hostile = ChannelConfig(
            latency="fixed:3", loss_rate=0.25, duplicate_rate=0.25,
            seed=base % 97,
        )

        async def scenario():
            store = ResultStore()
            async with fabric(
                {"w1": hostile, "w2": None},
                lease_timeout=0.5,
                service_kwargs={"store": store},
            ) as (coordinator, service, _):
                responses = await asyncio.wait_for(
                    service.submit_many(requests), 120
                )
                _assert_matches_direct(requests, responses)
                # Zero lost, zero double-committed: one store row per
                # unique request, no matter how many times the channel
                # dropped, doubled or delayed the work.
                unique = len({r.key for r in requests})
                assert len(store) == unique
                assert store.request_count() == unique
                snapshot = service.stats()
                assert snapshot["requests"] == len(requests)
                # "errors" counts agreed DiagnosisError outcomes (the
                # differential above pinned them identical to direct) —
                # the fabric itself must not add any failures.
                assert snapshot["errors"] == sum(
                    1 for response in responses if not response.ok
                )
                assert snapshot["fabric"]["outstanding_leases"] == 0

        asyncio.run(scenario())


class TestFallbackEvidence:
    def test_fabric_decline_increments_fallback_counter(self):
        """Regression: a FabricUnavailableError used to fall through to the
        local path silently — a degraded fleet was invisible in /stats."""

        class DecliningRemote:
            def has_workers(self):
                return True

            async def execute(self, topology, requests):
                raise FabricUnavailableError("all retries spent")

            def stats(self):
                return {}

        async def scenario():
            service = DiagnosisService(
                remote=DecliningRemote()
            )
            try:
                requests = _requests(count=3)
                responses = await service.submit_many(requests)
                _assert_matches_direct(requests, responses)
                snapshot = service.stats()
                assert snapshot["fabric_fallbacks"] >= 1
            finally:
                await service.close()

        asyncio.run(scenario())

    def test_worker_error_report_leaves_counter_and_message(self):
        """Regression: a worker's terminal error frame was requeued with its
        message discarded, leaving no evidence of *why* the environment
        failed."""
        from types import SimpleNamespace

        async def scenario():
            coordinator = FabricCoordinator(port=0, **FAST)
            await coordinator.start()
            try:
                link = SimpleNamespace(worker_id="w1", inflight={"L1"})
                coordinator._handle_worker_error(link, {
                    "kind": "error",
                    "lease": "L1",
                    "worker": "w1",
                    "message": "RuntimeError: cannot build topology",
                })
                assert link.inflight == set()
                row = coordinator.metrics.worker("w1")
                assert row["errors"] == 1
                stats = coordinator.stats()
                assert stats["last_worker_errors"] == {
                    "w1": "RuntimeError: cannot build topology"
                }
            finally:
                await coordinator.close()

        asyncio.run(scenario())
