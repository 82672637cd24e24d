#!/usr/bin/env python3
"""The serving benchmark: one load generator against the deployed server.

Run from the repository root::

    python3 perfbench/run.py --workload seeded_mix --seed 1 --seconds 10 --trace 0

Each run spawns ``python -m repro.cli serve --http 0 --ready-file ...`` as a
subprocess (``perfbench/traced_serve.py`` in front of it with ``--trace 1``),
warms one request per topology, and then drives it closed-loop from this one
process over at most ``nproc`` keep-alive connections for ``--seconds``.
Every answer is then checked against ``repro.service.executor.run_direct``
outside the timed window.  Workloads, metrics and their predictions are
described in ``perfbench/README.md``; names and bounds live in
``BENCHMARK.json``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every ``end_to_end`` metric (``--trace 0``) or every ``per_layer``
metric (``--trace 1``).  The exit code is 0 only when every request was
answered, and answered as the direct pipeline answers it.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run writes (native-kernel cache, temp files, stores, logs).
BUILD = ROOT / ".bench_build"

#: ``serve`` flags the benchmark pins (passed explicitly, and stamped).
MAX_BATCH = 64
BATCH_DELAY_MS = 2.0
#: Servers spawned per untraced run; ``setup_s`` is the median of their set-ups.
SETUPS = 5

Q8 = ("hypercube", {"dimension": 8})
Q12 = ("hypercube", {"dimension": 12})
Q14 = ("hypercube", {"dimension": 14})
S5 = ("star", {"n": 5})
S7 = ("star", {"n": 7})
#: ``--small`` (the self-test) swaps every mix for this one.
SMALL_MIX = (Q8, S5)


@dataclass(frozen=True)
class Workload:
    mix: tuple
    seed_pool: int    # distinct syndrome seeds per topology
    round_size: int   # requests per HTTP call
    explicit: bool    # send syndromes as syndrome_hex instead of seeds
    pooled: bool      # serve --workers <the server's CPUs>
    store: bool       # serve --store (a disk store in the run's temp dir)
    rate_hint: int    # generous diagnoses/s bound that sizes the streams
    think_ms: float = 0.0  # max seeded pause between a verdict and the next call
    connections: int | None = None  # keep-alive connections; None: nproc


WORKLOADS = {
    # Nearly every request distinct: syndrome materialisation, the kernel,
    # root search and the digest do the work; every request is a store write.
    # The pause keeps the two connections from locking into one phase (both
    # rounds in one coalescing window, or always alternating) for a whole run.
    "seeded_mix": Workload((Q12, Q14, S7), 10**9, 8, False, False, True, 400,
                           think_ms=10.0),
    # Syndromes built here before the window: hex decode, shm publish and
    # pool transfer carry the load; the only workload that measures parallel.*.
    # One connection: with two, each call's latency depended on where the
    # other's call stood in the server, and p99 spread by 0.27 over 5 seeds.
    # S_7 is drawn twice as often as Q_12: with one each, p50 fell on the
    # gap between the S_7 calls (~8 ms) and the Q_12 calls (~13 ms).
    "explicit_http": Workload((Q12, S7, S7), 32, 1, True, True, False, 1000,
                              connections=1),
}


def _prepare_environment() -> None:
    """Keep every file the program writes inside the checkout."""
    for name in ("cache", "tmp"):
        (BUILD / name).mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


# ------------------------------------------------------------------ inputs
class Inputs:
    """Per-connection request streams and the payloads that carry them.

    Connection ``i`` replays ``build_client_streams`` of a one-client
    ``LoadSpec`` seeded ``seed * 64 + i``; a stream's prefix does not depend
    on its length, so ``verify_against_direct`` can rebuild exactly the
    served prefix.
    """

    def __init__(self, workload: Workload, mix, seed: int, connections: int,
                 seconds: float, rate: float) -> None:
        from repro.service.loadgen import LoadSpec, build_client_streams
        from repro.service.requests import DiagnosisRequest

        self.workload = workload
        per_connection = rate * seconds / connections
        rounds = int(per_connection / workload.round_size) + 2
        self.specs = [
            LoadSpec.from_mix(
                mix, clients=1, requests_per_client=rounds * workload.round_size,
                seed=seed * 64 + i, seed_pool=workload.seed_pool,
            )
            for i in range(connections)
        ]
        self.streams = [build_client_streams(spec)[0] for spec in self.specs]
        self._explicit = {}
        if workload.explicit:
            for request in (r for stream in self.streams for r in stream):
                if request.key not in self._explicit:
                    self._explicit[request.key] = explicit_form(request)
        self._wire = {}
        self.calls = [self._calls(stream) for stream in self.streams]
        # Warm-up requests use a seed outside the measured pool.
        self.warm = [
            self._wire_request(DiagnosisRequest.seeded(
                family, params, seed=workload.seed_pool))
            for family, params in mix
        ]

    def _wire_request(self, request):
        if self.workload.explicit:
            request = self._explicit.get(request.key) or explicit_form(request)
        wire = self._wire.get(request.key)
        if wire is None:
            wire = self._wire[request.key] = request.to_wire()
        return wire

    @staticmethod
    def _payload(wires):
        return wires[0] if len(wires) == 1 else {"requests": wires}

    def _calls(self, stream):
        size = self.workload.round_size
        return [
            (size, self._payload([self._wire_request(r) for r in stream[i:i + size]]))
            for i in range(0, len(stream), size)
        ]


def explicit_form(request):
    """The seeded request's syndrome, materialised and sent as bytes."""
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.networks.registry import cached_network
    from repro.service.executor import PLACEMENTS
    from repro.service.requests import DiagnosisRequest

    network = cached_network(request.family, **request.network_kwargs)
    count = network.diagnosability() if request.fault_count is None else request.fault_count
    faults = PLACEMENTS[request.placement](network, count, seed=request.seed)
    syndrome = ArraySyndrome.from_faults(
        network, faults, behavior=request.behavior, seed=request.seed
    )
    return DiagnosisRequest.from_syndrome(
        request.family, request.network_kwargs, syndrome, tenant=request.tenant
    )


# ------------------------------------------------------------------ server
class Server:
    """One ``serve --http`` subprocess in its own session."""

    def __init__(self, workdir: Path, index: int, workload: Workload,
                 workers: int | None, spans_path: Path | None, cpus: set[int]) -> None:
        self.ready = workdir / f"ready-{index}.json"
        command = [sys.executable]
        command += ([str(HERE / "traced_serve.py"), str(spans_path)]
                    if spans_path is not None else ["-m", "repro.cli"])
        command += ["serve", "--http", "0", "--ready-file", str(self.ready),
                    "--max-batch", str(MAX_BATCH),
                    "--batch-delay-ms", str(BATCH_DELAY_MS)]
        if workload.store:
            command += ["--store", str(workdir / f"store-{index}.sqlite")]
        if workers is not None:
            command += ["--workers", str(workers)]
        # A fixed hash seed gives every server the same set and dict layouts.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.log_path = workdir / f"serve-{index}.log"
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        self.port: int | None = None

    async def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while not self.ready.exists():
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited with {self.process.returncode}: "
                                   f"{self.log_path.read_text()[-2000:]}")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve did not become ready")
            await asyncio.sleep(0.002)
        self.port = json.loads(self.ready.read_text())["port"]

    def _session(self) -> list[int]:
        """Pids in the server's process group: the server and its pool."""
        pids = []
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path(f"/proc/{entry}/stat").read_text()
                except OSError:
                    continue
                if int(stat.rsplit(")", 1)[1].split()[2]) == self.process.pid:
                    pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (``VmHWM``) of every process in the session."""
        total_kb = 0
        for pid in self._session():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole session is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.perf_counter() + 10
        while self._session() and time.perf_counter() < deadline:
            time.sleep(0.01)
        self._log.close()


# ------------------------------------------------------------------- wire
def parse_answers(status: int, body, size: int) -> list:
    """Responses of one call in request order; ``None`` marks a failure."""
    from repro.service.requests import DiagnosisResponse

    if status != 200 or not isinstance(body, dict):
        return [None] * size
    entries = body["responses"] if size > 1 else [body]
    return [DiagnosisResponse.from_wire(entry) if "faulty" in entry else None
            for entry in entries]


async def post(client, payload, size: int) -> list:
    status, body = await client.request("POST", "/diagnose", payload)
    return parse_answers(status, body, size)


async def drive(client, calls, deadline: float, latencies: list, calls_done: list,
                think, pause_ms: float) -> tuple[list, float]:
    """One closed-loop connection: send, wait for the verdict, pause, repeat."""
    answers: list = []
    finished = time.perf_counter()
    for size, payload in calls:
        if time.perf_counter() >= deadline:
            break
        start = time.perf_counter()
        answers.extend(await post(client, payload, size))
        finished = time.perf_counter()
        latencies.append(finished - start)
        calls_done.append((start, finished, size))
        if pause_ms:
            await asyncio.sleep(think.uniform(0.0, pause_ms) / 1e3)
    else:
        print("warning: a request stream ran out before the window closed",
              file=sys.stderr)
    return answers, finished


# -------------------------------------------------------------- the run
async def session(args, workload: Workload, inputs: Inputs, workdir: Path) -> dict:
    from repro.service.http import HttpClient

    workers = len(args.cpus) if workload.pooled else None
    spans_path = workdir / "spans.json" if args.trace else None
    setups = 1 if args.trace else SETUPS
    setup_times = []
    for index in range(setups):
        last = index == setups - 1
        server = Server(workdir, index, workload, workers,
                        spans_path if last else None, args.cpus)
        try:
            await server.wait_ready()
            async with HttpClient("127.0.0.1", server.port) as client:
                for payload in inputs.warm:
                    answer = await post(client, payload, 1)
                    if answer[0] is None or not answer[0].ok:
                        raise RuntimeError(f"warm-up request failed: {answer}")
                setup_times.append(time.perf_counter() - server.started)
            if not last:
                continue
            clients = [HttpClient("127.0.0.1", server.port) for _ in inputs.calls]
            for client in clients:
                await client.connect()
            latencies: list[float] = []
            calls_done: list[tuple[float, float, int]] = []
            # No collector pauses in the load generator while it times calls:
            # the prebuilt streams alone are ~10^5 tracked objects.
            gc.freeze()
            gc.disable()
            try:
                started = time.perf_counter()
                deadline = started + args.seconds
                outcomes = await asyncio.gather(*(
                    drive(client, calls, deadline, latencies, calls_done,
                          random.Random(args.seed * 64 + i), workload.think_ms)
                    for i, (client, calls) in enumerate(zip(clients, inputs.calls))
                ))
                ended = max(finished for _, finished in outcomes)
            finally:
                gc.enable()
                gc.unfreeze()
            for client in clients:
                await client.close()
            peak_rss = server.peak_rss_mb()
        finally:
            server.stop()
    return {
        "answers": [answers for answers, _ in outcomes],
        "latencies": latencies,
        "calls": calls_done,
        "window": (started, ended),
        "setup_times": setup_times,
        "peak_rss_mb": peak_rss,
        "spans_path": spans_path,
    }


def verify(inputs: Inputs, answers_per_connection: list) -> tuple[int, int]:
    """``(attempted, failed)`` after checking every answer against run_direct.

    A failure is a missing answer (non-200, 429, a rejected batch entry), an
    answer carrying ``error``, or an answer that differs from the direct
    pipeline's.  A missing answer is also a mismatch, so it is counted once
    here; an error answer that is also wrong counts twice, capped at the
    number attempted.
    """
    from repro.service.loadgen import LoadReport, verify_against_direct
    from repro.service.requests import DiagnosisResponse

    missing = DiagnosisResponse(
        topology_key="", syndrome_digest="", faulty=(), healthy_root=None,
        lookups=0, num_probes=0, partition_level=None, error="no answer",
    )
    attempted = failed = 0
    for spec, answers in zip(inputs.specs, answers_per_connection):
        if not answers:
            continue
        report = LoadReport(
            clients=1, requests=len(answers), wall_seconds=0.0,
            responses=[missing if a is None else a for a in answers],
        )
        served = replace(spec, requests_per_client=len(answers))
        mismatches = verify_against_direct(served, report)
        errors = sum(1 for a in answers if a is not None and not a.ok)
        attempted += len(answers)
        failed += min(len(answers), mismatches + errors)
    return attempted, failed


def sliced_percentile(calls, window: tuple[float, float], q: int,
                      most_slices: int = 30, per_slice: int = 100) -> float:
    """The ``q``-th percentile of call latency, as a median over window slices.

    The window is cut into as many equal slices (at most ``most_slices``)
    as hold ``per_slice`` calls each on average; each slice's percentile is
    taken over the calls sent in it, and the median of those is reported,
    so a few seconds of a busy host move it less than they move the
    percentile of the whole window.  With too few samples for two slices
    this is the plain percentile of the whole window.
    """
    lo, hi = window
    slices = max(1, min(most_slices, len(calls) // per_slice))
    width = (hi - lo) / slices
    groups: list[list[float]] = [[] for _ in range(slices)]
    for start, end, _ in calls:
        groups[min(slices - 1, int((start - lo) / width))].append(end - start)
    return statistics.median(
        statistics.quantiles(group, n=100, method="inclusive")[q - 1]
        for group in groups if len(group) > 1
    )


def median_rate(calls, window: tuple[float, float], bins: int = 10) -> float:
    """Median over ``bins`` equal slices of the window of diagnoses per second.

    A call's requests are spread evenly over its send-to-verdict interval,
    so a slice's rate does not jump by a whole round when a call ends just
    inside or outside it.  The median keeps a few seconds of a busy host
    from moving the figure.
    """
    lo, hi = window
    width = (hi - lo) / bins
    done = [0.0] * bins
    for start, end, size in calls:
        rate = size / (end - start)
        for k in range(max(0, int((start - lo) / width)),
                       min(bins, int((end - lo) / width) + 1)):
            left, right = lo + k * width, lo + (k + 1) * width
            overlap = min(end, right) - max(start, left)
            if overlap > 0:
                done[k] += rate * overlap
    return statistics.median(count / width for count in done)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="Q_8/S_5 instead of the full mix (self-test size)")
    parser.add_argument("--record", metavar="PATH",
                        help="also write {stamp, result} to PATH for compare.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to the benchmark", file=sys.stderr)
        return 2

    _prepare_environment()
    # The load generator gets one CPU and the server (with its pool) the
    # others.  Left to the scheduler, the two shared a CPU in some runs and
    # not in others, which moved latencies by up to 2x between equal runs.
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        print("perfbench: needs at least 2 CPUs", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(cpus)})
    args.cpus = cpus - {min(cpus)}
    import numpy as np
    from repro.core.native import native_kernel_active

    from ledger import layer_metrics

    workload = WORKLOADS[args.workload]
    mix = SMALL_MIX if args.small else workload.mix
    # No more keep-alive connections than nproc.
    connections = min(len(cpus), workload.connections or len(cpus))
    native = native_kernel_active()  # builds the kernel before any set-up is timed
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mix": "small" if args.small else "full",
        "nproc": len(cpus), "connections": connections,
        "python": platform.python_version(), "numpy": np.__version__,
        "native": native,
        "serve": {"workers": len(args.cpus) if workload.pooled else None,
                  "max_batch": MAX_BATCH, "batch_delay_ms": BATCH_DELAY_MS,
                  "store": workload.store},
    }
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        # The small mix runs about ten times faster than the full one.
        rate = workload.rate_hint * (10 if args.small else 1)
        inputs = Inputs(workload, mix, args.seed, connections, args.seconds, rate)
        run = asyncio.run(session(args, workload, inputs, workdir))
        attempted, failed = verify(inputs, run["answers"])
        latencies = run["latencies"]
        lo, hi = run["window"]
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {metric["name"]: metric["unit"]
                 for metric in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            dump = json.loads(run["spans_path"].read_text())
            metrics = layer_metrics(dump, (lo, hi), attempted)
        else:
            metrics = {
                "throughput_rps": median_rate(run["calls"], (lo, hi)),
                "latency_p50_ms": sliced_percentile(run["calls"], (lo, hi), 50) * 1e3,
                "latency_p99_ms": sliced_percentile(run["calls"], (lo, hi), 99) * 1e3,
                "setup_s": statistics.median(run["setup_times"]),
                "peak_rss_mb": run["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"check latency_samples={len(latencies)} attempted={attempted} "
          f"failed={failed} failed_share={failed / max(1, attempted):.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    if args.record:
        Path(args.record).write_text(json.dumps({"stamp": stamp, "result": result},
                                                indent=2, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
