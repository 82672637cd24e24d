"""Worker-pool tests: chunked plans, zero recompilation, transport, worker death."""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.trials import DistributedTrialSpec, TrialPlan, TrialSpec
from repro.parallel import WorkerPool, default_worker_count


def _norm(results):
    """Strip wall-clock noise; everything else must be bit-identical."""
    return [dataclasses.replace(r, elapsed_seconds=0.0) for r in results]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(max_workers=2) as shared_pool:
        yield shared_pool


@pytest.fixture(scope="module")
def two_cube_plan():
    return TrialPlan.from_factors(
        [("Q_6", "hypercube", {"dimension": 6}), ("Q_7", "hypercube", {"dimension": 7})],
        seeds=(3, 4),
    )


class TestChunkedTrialPlan:
    def test_pooled_equals_serial(self, pool, two_cube_plan):
        serial = _norm(two_cube_plan.run())
        assert two_cube_plan.last_run_stats is None  # serial leaves no stats
        pooled = _norm(two_cube_plan.run(pool=pool))
        assert pooled == serial

    def test_zero_worker_recompilation(self, pool, two_cube_plan):
        two_cube_plan.run(pool=pool)
        stats = two_cube_plan.last_run_stats
        assert stats is not None
        assert stats["worker_compiles"] == 0
        assert stats["topologies_published"] == 2
        assert stats["chunks"] >= 2

    def test_single_topology_plan_still_chunks(self, pool):
        """The old per-group fan-out ran one-group plans inline; chunking must not."""
        plan = TrialPlan.from_factors(
            [("Q_7", "hypercube", {"dimension": 7})], seeds=6,
        )
        serial = _norm(plan.run())
        pooled = _norm(plan.run(pool=pool, chunk_size=2))
        assert pooled == serial
        assert plan.last_run_stats["chunks"] == 3
        assert plan.last_run_stats["worker_compiles"] == 0

    def test_chunk_size_does_not_change_results(self, pool, two_cube_plan):
        reference = _norm(two_cube_plan.run(pool=pool))
        for chunk_size in (1, 3, 100):
            assert _norm(two_cube_plan.run(pool=pool, chunk_size=chunk_size)) == reference


class TestChunkedDistributedPlan:
    def test_pooled_equals_serial(self, pool):
        plan = TrialPlan.from_factors(
            [("Q_6", "hypercube", {"dimension": 6})],
            spec=DistributedTrialSpec,
            seeds=(5,),
            loss_rates=(0.0, 0.1),
            root_counts=(1, 2),
        )
        serial = _norm(plan.run())
        pooled = _norm(plan.run(pool=pool, chunk_size=1))
        assert pooled == serial
        assert plan.last_run_stats["worker_compiles"] == 0


class TestMixedPlan:
    """Diagnosis and engine rows in one table, on one topology."""

    @pytest.fixture(scope="class")
    def mixed_plan(self):
        params = (("dimension", 6),)
        return TrialPlan([
            TrialSpec("Q_6", "hypercube", params, seed=1),
            DistributedTrialSpec("Q_6", "hypercube", params, seed=1, root_count=2),
            TrialSpec("Q_6", "hypercube", params, seed=2, algorithm="yang"),
            DistributedTrialSpec("Q_6", "hypercube", params, seed=2, loss_rate=0.1),
        ])

    def test_each_row_runs_with_its_own_spec_type(self, mixed_plan):
        results = mixed_plan.run()
        assert [r.spec for r in results] == mixed_plan.trials
        diagnoses, engine_runs = results[::2], results[1::2]
        assert all(r.exact and r.lookups > 0 for r in diagnoses)
        assert all(r.messages > 0 and r.gossip_messages > 0 for r in engine_runs)
        assert len(mixed_plan.groups()) == 2

    def test_pooled_equals_serial(self, pool, mixed_plan):
        serial = _norm(mixed_plan.run())
        pooled = _norm(mixed_plan.run(pool=pool, chunk_size=1))
        assert pooled == serial
        stats = mixed_plan.last_run_stats
        assert stats["chunks"] == 4
        assert stats["worker_compiles"] == 0
        assert stats["topologies_published"] == 1


class TestTopologyShipping:
    def test_fresh_workers_attach_topology_without_compiling(self):
        """A pool forked before any compile still never compiles.

        The worker cannot have inherited the compiled topology through fork,
        so a zero delta proves it came out of the shared segment.
        """
        plan = TrialPlan.from_factors(
            [("Q_6", "hypercube", {"dimension": 6})], seeds=(11, 12),
        )
        with WorkerPool(max_workers=2) as fresh_pool:
            # Fork the workers before the coordinator compiles anything, so
            # nothing can be inherited.
            fresh_pool.submit(pow, 2, 2).result()
            plan.run(pool=fresh_pool)
        assert plan.last_run_stats["worker_compiles"] == 0

    def test_worker_topology_cache_is_bounded(self):
        """Re-published topologies must not pin one mapping per name forever."""
        from repro.backend.csr import compile_network
        from repro.networks.registry import create_network
        from repro.parallel import pool as pool_module
        from repro.parallel.shm import detach, publish_topology

        csr = compile_network(create_network("hypercube", dimension=5))
        cache = pool_module._TOPOLOGY_CACHE
        known = set(cache)
        segments = []
        try:
            # Each publish mints a fresh segment name — the service's
            # evict/release/re-publish cycle seen from the worker side.
            for _ in range(pool_module._TOPOLOGY_CACHE_LIMIT + 3):
                handle, segment = publish_topology(csr)
                segments.append(segment)
                attached = pool_module.worker_topology(handle)
                assert attached.num_nodes == csr.num_nodes
                attached = None  # drop our views so eviction can unmap
            assert len(cache) <= pool_module._TOPOLOGY_CACHE_LIMIT
            # Evicted mappings either unmapped on the spot or await their
            # views' death in the retired list; none are silently pinned.
            assert len(pool_module._TOPOLOGY_RETIRED) <= 1
        finally:
            for name in [n for n in cache if n not in known]:
                detach(cache.pop(name)._shm)
            pool_module._TOPOLOGY_RETIRED[:] = [
                s for s in pool_module._TOPOLOGY_RETIRED
                if not pool_module._try_unmap(s)
            ]
            for segment in segments:
                segment.close()

    def test_worker_health_reports_compiles(self, pool):
        for report in pool.health():
            assert report["compiles"] >= 0

    def test_publish_is_memoized_per_topology(self):
        from multiprocessing import shared_memory

        from repro.backend.csr import compile_network
        from repro.networks.registry import create_network

        network = create_network("hypercube", dimension=6)
        with WorkerPool(max_workers=1) as own_pool:
            handle = own_pool.publish_topology(network)
            # The network and its compiled form share one segment.
            assert own_pool.publish_topology(compile_network(network)) is handle
            assert handle.num_entries == compile_network(network).num_entries
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

    def test_release_topology_drops_segment_and_memo(self):
        from multiprocessing import shared_memory

        from repro.backend.csr import compile_network
        from repro.networks.registry import create_network

        csr = compile_network(create_network("hypercube", dimension=5))
        with WorkerPool(max_workers=1) as own_pool:
            handle = own_pool.publish_topology(csr)
            own_pool.release_topology(csr)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.name)
            own_pool.release_topology(csr)  # unknown now: ignored
            # A fresh publish after release mints a new segment.
            assert own_pool.publish_topology(csr).name != handle.name


class TestPoolBasics:
    def test_default_worker_count_bounds(self):
        assert 1 <= default_worker_count() <= 4

    def test_pool_is_reusable_across_plans(self, pool, two_cube_plan):
        first = _norm(two_cube_plan.run(pool=pool))
        second = _norm(two_cube_plan.run(pool=pool))
        assert first == second

    def test_submit_plain_callables(self, pool):
        assert pool.submit(pow, 2, 10).result() == 1024


# ------------------------------------------------- transport and worker death
#: Generous bound on how long a dead worker may take to fail its futures.
DEADLINE_S = 30


class _Unrebuildable(Exception):
    """Pickles, but cannot be rebuilt: ``__init__`` wants two arguments."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _raise_unpicklable():
    error = RuntimeError("carries a lock")
    error.lock = threading.Lock()
    raise error


def _raise_unrebuildable():
    raise _Unrebuildable(7, "no")


def _return_unpicklable():
    return threading.Lock()


def _sleep_then(seconds, value):
    # repro: allow[RPR011] the sleep is the task's work, not a wait on state
    time.sleep(seconds)
    return value


class TestTransport:
    def test_idle_pool_routes_one_probe_to_each_worker(self):
        with WorkerPool(max_workers=2) as own_pool:
            own_pool.submit(pow, 2, 2).result()  # fork
            # A probe answered early must not pull the next one its way.
            for _ in range(20):
                assert len({r["pid"] for r in own_pool.health()}) == 2

    @pytest.mark.parametrize(
        "task", [_raise_unpicklable, _raise_unrebuildable, _return_unpicklable]
    )
    def test_unpicklable_outcomes_fail_only_their_own_future(self, task):
        with WorkerPool(max_workers=1) as own_pool:
            before = own_pool.submit(pow, 2, 3)
            failed = own_pool.submit(task)
            after = own_pool.submit(pow, 2, 4)
            assert before.result(DEADLINE_S) == 8
            assert isinstance(failed.exception(DEADLINE_S), Exception)
            assert after.result(DEADLINE_S) == 16
            assert own_pool.submit(pow, 2, 5).result(DEADLINE_S) == 32

    def test_concurrent_submitters_get_their_own_replies(self):
        """Replies pair with futures by pipe order: threads racing to submit
        (more workers than cores, a short switch interval) must never see
        another task's result."""
        import sys

        results: dict[int, object] = {}

        def submitter(base):
            futures = [(i, own_pool.submit(pow, i, 1))
                       for i in range(base, base + 150)]
            for i, future in futures:
                results[i] = future.result(DEADLINE_S)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(max_workers=3) as own_pool:
                threads = [threading.Thread(target=submitter, args=(k * 1000,))
                           for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(DEADLINE_S)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4 * 150
        assert all(value == key for key, value in results.items())

    def test_task_exceptions_carry_the_worker_traceback(self):
        with WorkerPool(max_workers=1) as own_pool:
            error = own_pool.submit(int, "x").exception(DEADLINE_S)
        assert isinstance(error, ValueError)
        assert "Traceback" in str(error.__cause__)

    def test_shutdown_waits_for_queued_tasks(self):
        own_pool = WorkerPool(max_workers=1)
        futures = [own_pool.submit(_sleep_then, 0.02, i) for i in range(5)]
        own_pool.shutdown(wait=True)
        assert [future.result(0) for future in futures] == list(range(5))

    def test_pool_restarts_workers_after_shutdown(self):
        own_pool = WorkerPool(max_workers=1)
        first = own_pool.submit(os.getpid).result(DEADLINE_S)
        own_pool.shutdown()
        with own_pool:
            assert own_pool.submit(os.getpid).result(DEADLINE_S) != first


class TestWorkerDeath:
    def test_killed_worker_breaks_the_pool(self):
        from multiprocessing import shared_memory

        with WorkerPool(max_workers=2) as own_pool:
            names = [own_pool.publish_buffer(b"\x01" * 64).name]
            pids = [report["pid"] for report in own_pool.health()]
            assert len(pids) == 2
            # One task in flight on each worker (idle pool: one apiece).
            in_flight = [own_pool.submit(_sleep_then, 60, i) for i in range(2)]
            os.kill(pids[0], signal.SIGKILL)
            for future in in_flight:
                assert isinstance(
                    future.exception(DEADLINE_S), BrokenProcessPool
                )
            with pytest.raises(BrokenProcessPool):
                own_pool.submit(pow, 2, 2)
            # shutdown returns (nothing waits on the dead worker's siblings)
            # and unlinks every segment.
            stopper = threading.Thread(target=own_pool.shutdown)
            stopper.start()
            stopper.join(DEADLINE_S)
            assert not stopper.is_alive()
            for name in names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            # A shut-down pool forks fresh workers on its next submit.
            assert own_pool.submit(pow, 2, 6).result(DEADLINE_S) == 64

    def test_idle_worker_death_breaks_later_submits(self):
        with WorkerPool(max_workers=1) as own_pool:
            (report,) = own_pool.health()
            victim = own_pool._workers[0].process
            os.kill(report["pid"], signal.SIGKILL)
            victim.join(DEADLINE_S)
            deadline = time.monotonic() + DEADLINE_S
            while not own_pool._broken:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(BrokenProcessPool):
                own_pool.submit(pow, 2, 2)
