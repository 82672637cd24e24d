"""Chaos campaign: SIGKILL a real worker subprocess mid-batch.

The coordinator (plus service and store) runs in this process; workers are
genuine ``python -m repro.cli worker`` subprocesses on localhost.  The
victim worker is configured with a large injected result delay so its
leases are reliably in flight when ``SIGKILL`` lands — an abrupt process
death the kernel announces only through the closed socket.  Every request
must still complete via requeue onto the survivor, results must be
bit-identical to the direct pipeline, and the store must hold exactly one
row per unique request (no losses, no double commits).  The campaign runs
once over a clean survivor link and once with the survivor itself behind a
drop/duplicate/delay channel.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fabric import FabricCoordinator
from repro.parallel import spawn_seeds
from repro.service import DiagnosisRequest, DiagnosisService, ResultStore
from repro.service.executor import run_direct
from tests.conftest import TINY_PARAMS

#: The victim delays every result by (300-1) * 5ms ~= 1.5s: long enough
#: that SIGKILL beats the result onto the wire, short enough for CI.
VICTIM_FLAGS = ["--latency", "fixed:300", "--delay-unit-ms", "5"]

SURVIVOR_FLAGS = {
    "clean": [],
    "faulty": ["--loss-rate", "0.3", "--duplicate-rate", "0.3",
               "--latency", "fixed:3", "--delay-unit-ms", "5",
               "--fault-seed", "13"],
}


def _spawn_worker(port: int, worker_id: str, ready_file, extra_flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", f"127.0.0.1:{port}",
         "--id", worker_id,
         "--ready-file", str(ready_file),
         *extra_flags],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while not ready_file.exists():
        if process.poll() is not None:
            raise AssertionError(
                f"worker {worker_id} exited with {process.returncode} "
                f"before joining"
            )
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError(f"worker {worker_id} never joined")
        time.sleep(0.05)
    payload = json.loads(ready_file.read_text())
    assert payload["worker"] == worker_id
    assert payload["pid"] == process.pid
    return process


def _requests():
    """Two topologies -> two independently leased batches in flight."""
    requests = []
    for family in ("hypercube", "star"):
        params = TINY_PARAMS[family]
        base = sum(ord(c) for c in family)
        requests.extend(
            DiagnosisRequest.seeded(family, params, seed=seed)
            for seed in spawn_seeds(base, 4)
        )
    return requests + requests[:2]  # repeats: the store dedups them


@pytest.mark.parametrize("survivor_channel", sorted(SURVIVOR_FLAGS))
def test_sigkill_mid_batch_completes_via_requeue(tmp_path, survivor_channel):
    requests = _requests()
    processes = []

    async def scenario():
        store = ResultStore()
        coordinator = FabricCoordinator(
            port=0, heartbeat_interval=0.2, lease_timeout=8.0,
            backoff_base=0.01, backoff_cap=0.1,
        )
        await coordinator.start()
        service = DiagnosisService(
            remote=coordinator, store=store
        )
        loop = asyncio.get_running_loop()
        try:
            victim = await loop.run_in_executor(None, _spawn_worker,
                coordinator.port, "victim", tmp_path / "victim.json",
                VICTIM_FLAGS)
            processes.append(victim)

            submission = asyncio.create_task(service.submit_many(requests))
            # Both leases in flight on the (only, slow) victim worker.
            deadline = loop.time() + 30
            while coordinator.stats()["outstanding_leases"] < 2:
                assert loop.time() < deadline, "leases never dispatched"
                await asyncio.sleep(0.02)

            survivor = await loop.run_in_executor(None, _spawn_worker,
                coordinator.port, "survivor", tmp_path / "survivor.json",
                SURVIVOR_FLAGS[survivor_channel])
            processes.append(survivor)

            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

            responses = await asyncio.wait_for(submission, 120)

            # 1. Every request completed, bit-identical to direct.
            assert len(responses) == len(requests)
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
                ), f"chaos run diverged on {request.describe()}"

            # 2. Zero duplicates in the store: one row per unique request.
            unique = len({r.key for r in requests})
            assert len(store) == unique
            assert store.request_count() == unique

            # 3. The death was seen and recovered from, on the record.
            snapshot = service.stats()
            rows = snapshot["workers"]
            assert rows["victim"]["requeued"] >= 1
            assert rows["victim"]["evictions"] == 1
            assert rows["survivor"]["completed"] >= 2
            assert not coordinator.registry.is_live("victim")
            assert coordinator.stats()["outstanding_leases"] == 0
        finally:
            await service.close()
            await coordinator.close()

    try:
        asyncio.run(scenario())
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
