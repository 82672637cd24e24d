"""Backend benchmark: the served diagnosis vs the rows-oracle reference.

Two modes:

* under pytest (``pytest benchmarks -o python_files='bench_*.py'``) the
  served path (flat ``ArraySyndrome``, native kernels) and the reference
  path (the §4.1 rows oracle over the dict table
  ``TableSyndrome.from_faults``) are benchmarked on a 12-cube with
  ``pytest-benchmark`` statistics;
* as a script (``PYTHONPATH=src python benchmarks/bench_backend.py``) it
  measures the tracked numbers of ``BENCH_e1.json`` at the repository root:
  the 12/14-cube legacy-vs-compiled head-to-head (``legacy`` is the
  reference path), the compiled-only frontier (Q_16 and Q_18 — the
  dict-table reference is too slow to field there, which is itself the
  datum), the k-ary and star family rows, the distributed
  engine overhead, and the shared-memory pooled-sweep comparison (serial vs
  worker pool, recorded under the ``pooled_sweep`` key).  Naming only
  dimensions below 14 (as in ``bench_backend.py 12``) is a reduced run: it
  skips the frontier, checks every answer and writes nothing.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from repro.core.diagnosis import GeneralDiagnoser
from repro.core.faults import random_faults
from repro.core.syndrome import TableSyndrome, generate_syndrome
from repro.networks.registry import compiled_network


def _instance(build=generate_syndrome):
    cube, _ = compiled_network("hypercube", dimension=12)
    faults = random_faults(cube, 12, seed=12)
    return cube, faults, build(cube, faults, seed=12)


def test_compiled_diagnosis(benchmark):
    cube, faults, syndrome = _instance()
    diagnoser = GeneralDiagnoser(cube)

    result = benchmark(diagnoser.diagnose, syndrome)

    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E1-backend"
    benchmark.extra_info["path"] = "compiled"


def test_reference_diagnosis(benchmark):
    cube, faults, syndrome = _instance(TableSyndrome.from_faults)
    diagnoser = GeneralDiagnoser(cube)

    result = benchmark(diagnoser.diagnose, syndrome)

    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E1-backend"
    benchmark.extra_info["path"] = "reference"


def test_array_syndrome_generation(benchmark):
    cube, csr = compiled_network("hypercube", dimension=12)
    faults = random_faults(cube, 12, seed=12)
    from repro.backend import ArraySyndrome

    syndrome = benchmark(ArraySyndrome.from_faults, csr, faults, seed=12)
    assert len(syndrome) == csr.num_pairs


def test_distributed_engine_run(benchmark):
    from repro.distributed import ProtocolEngine, derived_run_stats

    cube, faults, syndrome = _instance()
    root = next(v for v in range(cube.num_nodes) if v not in faults)
    engine = ProtocolEngine(cube)

    outcome = benchmark(engine.run_set_builder, syndrome, root)

    legacy = derived_run_stats(cube, syndrome, root)
    assert (outcome.rounds, outcome.messages) == (legacy.rounds, legacy.messages)
    benchmark.extra_info["experiment"] = "E9-engine"
    benchmark.extra_info["path"] = "event-driven"


# ----------------------------------------------------------------- script mode
def _best_of(fn, repetitions: int) -> float:
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_dimension(n: int, *, seed: int = 1, repetitions: int = 5) -> dict:
    """Head-to-head reference vs served diagnosis on ``Q_n`` with ``n`` faults.

    ``legacy`` is the reference path: the dict table
    ``TableSyndrome.from_faults`` and the rows-oracle ``Set_Builder``.
    """
    cube, csr = compiled_network("hypercube", dimension=n)
    faults = random_faults(cube, n, seed=seed)

    table_start = time.perf_counter()
    table = TableSyndrome.from_faults(cube, faults, seed=seed)
    table_generation_s = time.perf_counter() - table_start

    array_start = time.perf_counter()
    array = generate_syndrome(cube, faults, seed=seed)
    array_generation_s = time.perf_counter() - array_start

    diagnoser = GeneralDiagnoser(cube)
    reference = diagnoser.diagnose(table)
    fast = diagnoser.diagnose(array)
    assert reference.faulty == fast.faulty == faults
    assert reference.lookups == fast.lookups

    legacy_s = _best_of(lambda: diagnoser.diagnose(table), max(2, repetitions // 2))
    compiled_s = _best_of(lambda: diagnoser.diagnose(array), repetitions)
    return {
        "dimension": n,
        "num_nodes": cube.num_nodes,
        "num_faults": len(faults),
        "lookups": fast.lookups,
        "legacy_diagnose_ms": round(legacy_s * 1e3, 3),
        "compiled_diagnose_ms": round(compiled_s * 1e3, 3),
        "diagnose_speedup": round(legacy_s / compiled_s, 2),
        "legacy_syndrome_generation_ms": round(table_generation_s * 1e3, 3),
        "array_syndrome_generation_ms": round(array_generation_s * 1e3, 3),
        "syndrome_generation_speedup": round(table_generation_s / array_generation_s, 1),
    }


def measure_compiled_frontier(n: int, *, seed: int = 1, repetitions: int = 3) -> dict:
    """Compiled-only measurement for dimensions past the legacy path's reach.

    At Q_16+ the reference path (dict-table syndrome + rows oracle) takes
    minutes just to *generate* its syndrome, so the frontier
    rows track the compiled pipeline alone: one-time compile cost, vectorised
    syndrome generation, and the diagnose hot path.
    """
    from repro.backend import ArraySyndrome
    from repro.networks.registry import create_network

    build_start = time.perf_counter()
    cube = create_network("hypercube", dimension=n)
    from repro.backend.csr import CSRAdjacency

    csr = CSRAdjacency.from_network(cube)
    cube._csr_adjacency = csr
    compile_s = time.perf_counter() - build_start

    faults = random_faults(cube, n, seed=seed)
    generation_s = _best_of(
        lambda: ArraySyndrome.from_faults(csr, faults, seed=seed), repetitions
    )
    syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
    diagnoser = GeneralDiagnoser(cube)
    result = diagnoser.diagnose(syndrome)
    assert result.faulty == faults
    diagnose_s = _best_of(lambda: diagnoser.diagnose(syndrome), repetitions)
    return {
        "dimension": n,
        "num_nodes": cube.num_nodes,
        "num_faults": len(faults),
        "lookups": result.lookups,
        "compile_ms": round(compile_s * 1e3, 3),
        "array_syndrome_generation_ms": round(generation_s * 1e3, 3),
        "compiled_diagnose_ms": round(diagnose_s * 1e3, 3),
    }


def _available_memory_gib() -> float:
    """Best-effort MemAvailable in GiB (0.0 when unreadable)."""
    try:
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / (1024 * 1024)
    except OSError:
        pass
    return 0.0


def measure_shm_frontier(n: int, *, seed: int = 1) -> dict:
    """``Q_n`` through the pooled shared-memory path, end to end.

    The coordinator compiles ``Q_n`` once, publishes the topology *and* the
    syndrome buffer to shared memory, and ships a single explicit-syndrome
    request as one :func:`run_batch_task` — exactly the serving path's
    pooled dispatch.  The worker maps both segments zero-copy and runs the
    stacked kernel; the task's compile delta is asserted zero, which is what
    makes dimensions this size practical: a per-worker topology walk +
    compile at ``Q_20`` costs more than the diagnosis itself.

    The response is verified against a coordinator-side
    ``GeneralDiagnoser.diagnose`` run on the same syndrome.
    """
    from repro.backend import ArraySyndrome
    from repro.backend.csr import CSRAdjacency
    from repro.networks.registry import create_network
    from repro.parallel import WorkerPool
    from repro.service.executor import run_batch_task
    from repro.service.requests import DiagnosisRequest, syndrome_digest

    build_start = time.perf_counter()
    cube = create_network("hypercube", dimension=n)
    csr = CSRAdjacency.from_network(cube)
    cube._csr_adjacency = csr
    compile_s = time.perf_counter() - build_start

    faults = random_faults(cube, n, seed=seed)
    generation_start = time.perf_counter()
    syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
    generation_s = time.perf_counter() - generation_start

    # The syndrome travels out-of-band (the span below, with the digest the
    # coordinator keys it by), so the request carries no bytes of its own —
    # the wire form the service dispatches.
    digest = syndrome_digest(*syndrome.digest_source)
    params = (("dimension", n),)
    request = DiagnosisRequest(family="hypercube", params=params)
    with WorkerPool(max_workers=1) as pool:
        publish_start = time.perf_counter()
        topology_handle = pool.publish_topology(csr)
        syndrome_handle = pool.publish_buffer(syndrome.values_array)
        publish_s = time.perf_counter() - publish_start
        task_start = time.perf_counter()
        responses, stats = pool.submit(
            run_batch_task, topology_handle, "hypercube", params, [request],
            syndrome_handle, [(0, 0, csr.num_pairs, digest)],
        ).result()
        task_s = time.perf_counter() - task_start
        pool.release(syndrome_handle)

    assert stats["compiles"] == 0, "worker recompiled a published topology"
    assert stats["kernel_width"] == 1
    response = responses[0]
    assert response.error is None, response.error
    assert set(response.faulty) == faults
    assert response.syndrome_digest == digest

    reference = GeneralDiagnoser(cube).diagnose(
        ArraySyndrome.from_faults(csr, faults, seed=seed)
    )
    assert set(response.faulty) == reference.faulty
    assert response.healthy_root == reference.healthy_root
    assert response.lookups == reference.lookups
    return {
        "dimension": n,
        "num_nodes": cube.num_nodes,
        "num_pairs": csr.num_pairs,
        "num_faults": len(faults),
        "lookups": response.lookups,
        "compile_ms": round(compile_s * 1e3, 3),
        "array_syndrome_generation_ms": round(generation_s * 1e3, 3),
        "shm_publish_ms": round(publish_s * 1e3, 3),
        "pooled_diagnose_ms": round(task_s * 1e3, 3),
        "worker_compiles": stats["compiles"],
        "verified_against_direct": True,
    }


#: Family frontier rows: the k-ary and star-family instances tracked
#: alongside the hypercube numbers (labels follow the experiment tables).
FAMILY_FRONTIER: list[tuple[str, str, dict]] = [
    ("Q^8_3", "kary_ncube", {"n": 3, "k": 8}),
    ("Q^16_2", "kary_ncube", {"n": 2, "k": 16}),
    ("S_7", "star", {"n": 7}),
    ("S_7,4", "nk_star", {"n": 7, "k": 4}),
]


def measure_families(*, seed: int = 1, repetitions: int = 3) -> list[dict]:
    """Compiled diagnosis numbers for the k-ary and star family frontier."""
    from repro.backend import ArraySyndrome

    rows = []
    for label, family, params in FAMILY_FRONTIER:
        network, csr = compiled_network(family, **params)
        delta = network.diagnosability()
        faults = random_faults(network, delta, seed=seed)
        generation_s = _best_of(
            lambda: ArraySyndrome.from_faults(csr, faults, seed=seed), repetitions
        )
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
        diagnoser = GeneralDiagnoser(network)
        result = diagnoser.diagnose(syndrome)
        assert result.faulty == faults
        diagnose_s = _best_of(lambda: diagnoser.diagnose(syndrome), repetitions)
        rows.append({
            "instance": label,
            "family": family,
            "num_nodes": network.num_nodes,
            "num_faults": len(faults),
            "lookups": result.lookups,
            "array_syndrome_generation_ms": round(generation_s * 1e3, 3),
            "compiled_diagnose_ms": round(diagnose_s * 1e3, 3),
        })
    return rows


def measure_pooled_sweep(n: int, *, workers: int = 4, trials: int = 6,
                         base_seed: int = 16) -> dict:
    """A Q_n sweep: serial vs the shared-memory worker pool.

    Two phases over the identical trial table (results are bit-identical —
    asserted — because every trial self-seeds):

    1. ``serial``: the plain in-process run, measured after one unmeasured
       warm-up pass so one-time costs (compile, pair layout, row
       materialisation) do not bias the serial number upward — forked pool
       workers would inherit that warm state anyway.
    2. ``pool``: chunked fan-out over the shared-memory worker pool — one
       coordinator-side compile, zero worker-side compiles (asserted from the
       per-chunk worker diagnostics) — measured after one unmeasured run on
       the same pool, so forking the workers and attaching the topology stay
       outside the timing as the serial leg's one-time costs do.

    The recorded ``speedup_vs_serial`` is honest wall-clock on the current
    machine — ``cpu_count`` is recorded next to it because process-level
    parallelism cannot beat a warm serial run on fewer cores than workers.
    """
    import dataclasses
    import os

    from repro.experiments.trials import TrialPlan, TrialSpec
    from repro.parallel import WorkerPool

    plan = TrialPlan(
        TrialSpec(label=f"Q_{n}", family="hypercube", params=(("dimension", n),),
                  placement="random", fault_count=n, seed=base_seed + i)
        for i in range(trials)
    )

    def norm(results):
        return [dataclasses.replace(r, elapsed_seconds=0.0) for r in results]

    plan.run()  # warm-up: compile + pair layout + rows, outside the timing
    serial_start = time.perf_counter()
    serial_results = plan.run()
    serial_s = time.perf_counter() - serial_start

    with WorkerPool(max_workers=workers) as pool:
        plan.run(pool=pool)  # warm-up: fork + attach, outside the timing
        pool_start = time.perf_counter()
        pool_results = plan.run(pool=pool)
        pool_s = time.perf_counter() - pool_start
        pool_stats = dict(plan.last_run_stats)

    assert norm(serial_results) == norm(pool_results)
    assert pool_stats["worker_compiles"] == 0
    assert all(r.exact for r in serial_results)

    speedup_vs_serial = round(serial_s / pool_s, 2)
    return {
        "description": (
            f"Q_{n} sweep, {trials} trials, --workers {workers}: serial vs "
            "persistent shared-memory pool (identical results asserted)"
        ),
        "dimension": n,
        "trials": trials,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 3),
        "pool_s": round(pool_s, 3),
        "worker_compiles_pool": pool_stats["worker_compiles"],
        "chunks": pool_stats["chunks"],
        "speedup_vs_serial": speedup_vs_serial,
        "target_speedup_vs_serial": 2.0,
        "target_met": speedup_vs_serial >= 2.0,
        "note": (
            "speedup_vs_serial needs >= workers physical cores to reach the "
            "target; on fewer cores the pool can only tie a warm serial run"
        ),
    }


def measure_distributed(n: int, *, seed: int = 1, repetitions: int = 5) -> dict:
    """Event-driven engine vs the legacy analytical simulator on ``Q_n``.

    Both produce identical statistics on the default channel (asserted); the
    entry records what actually simulating every message costs relative to
    deriving the counts from one sequential ``Set_Builder`` run.
    """
    from repro.distributed import ProtocolEngine, derived_run_stats

    cube, csr = compiled_network("hypercube", dimension=n)
    faults = random_faults(cube, n, seed=seed)
    syndrome = generate_syndrome(cube, faults, seed=seed)
    root = next(v for v in range(cube.num_nodes) if v not in faults)
    engine = ProtocolEngine(csr)

    legacy = derived_run_stats(cube, syndrome, root)
    outcome = engine.run_set_builder(syndrome, root)
    assert (outcome.rounds, outcome.messages, outcome.tree_size) == \
        (legacy.rounds, legacy.messages, legacy.tree_size)

    legacy_s = _best_of(lambda: derived_run_stats(cube, syndrome, root), repetitions)
    engine_s = _best_of(lambda: engine.run_set_builder(syndrome, root), repetitions)
    return {
        "dimension": n,
        "rounds": outcome.rounds,
        "messages": outcome.messages,
        "legacy_simulator_ms": round(legacy_s * 1e3, 3),
        "engine_ms": round(engine_s * 1e3, 3),
        "engine_overhead": round(engine_s / legacy_s, 2),
    }


def main(argv: list[str] | None = None) -> int:
    dimensions = [int(a) for a in (argv or [])] or [12, 14]
    reduced = max(dimensions) < 14  # CI smoke: skip the expensive frontier

    pooled = measure_pooled_sweep(
        16 if not reduced else max(dimensions),
        workers=4,
        trials=6 if not reduced else 3,
    )
    results = [measure_dimension(n) for n in dimensions]
    frontier = [] if reduced else [measure_compiled_frontier(n) for n in (16, 18)]
    # Q_20 needs the shared-memory path (publishing the topology once instead
    # of compiling it per worker); Q_22 only where memory allows — its
    # syndrome buffer alone runs to GiB.
    shm_dimensions = [] if reduced else [20]
    if not reduced and _available_memory_gib() >= 32.0:
        shm_dimensions.append(22)
    shm_frontier = [measure_shm_frontier(n) for n in shm_dimensions]
    families = [] if reduced else measure_families()
    distributed = measure_distributed(dimensions[-1])
    headline = results[-1]
    payload = {
        "benchmark": "bench_backend",
        "experiment": "E1",
        "description": (
            "GeneralDiagnoser.diagnose head-to-head: legacy = the reference "
            "path (TableSyndrome.from_faults dict table + rows-oracle "
            "Set_Builder) vs compiled = flat ArraySyndrome + native kernels"
        ),
        "target_speedup": 5.0,
        "headline_dimension": headline["dimension"],
        "headline_speedup": headline["diagnose_speedup"],
        "target_met": headline["diagnose_speedup"] >= 5.0,
        "python": sys.version.split()[0],
        "results": results,
        "compiled_frontier": {
            "description": (
                "compiled-only rows past the reference path's reach (its "
                "dict-table syndrome generation alone takes minutes at Q_16+)"
            ),
            "results": frontier,
        },
        "shm_frontier": {
            "description": (
                "pooled shared-memory rows past the single-process frontier: "
                "topology + syndrome buffer published once, one "
                "run_batch_task per diagnosis, zero worker-side compiles "
                "asserted, response verified against a direct "
                "coordinator-side diagnose"
            ),
            "results": shm_frontier,
        },
        "family_frontier": {
            "description": (
                "k-ary and star family instances on the compiled pipeline "
                "(labels follow the experiment tables)"
            ),
            "results": families,
        },
        "pooled_sweep": pooled,
        "distributed_engine": {
            "description": (
                "ProtocolEngine.run_set_builder (real event-driven messages) "
                "vs the legacy analytical derivation, identical statistics "
                "asserted on the reliable unit-latency channel"
            ),
            **distributed,
        },
    }
    for row in results:
        print(
            f"Q_{row['dimension']}: legacy {row['legacy_diagnose_ms']:.1f} ms, "
            f"compiled {row['compiled_diagnose_ms']:.1f} ms "
            f"({row['diagnose_speedup']}x); syndrome generation "
            f"{row['syndrome_generation_speedup']}x faster"
        )
    for row in frontier:
        print(
            f"Q_{row['dimension']} (frontier): compile {row['compile_ms']:.0f} ms, "
            f"syndrome {row['array_syndrome_generation_ms']:.0f} ms, "
            f"diagnose {row['compiled_diagnose_ms']:.0f} ms"
        )
    for row in shm_frontier:
        print(
            f"Q_{row['dimension']} (shm frontier): compile "
            f"{row['compile_ms']:.0f} ms, syndrome "
            f"{row['array_syndrome_generation_ms']:.0f} ms, publish "
            f"{row['shm_publish_ms']:.0f} ms, pooled diagnose "
            f"{row['pooled_diagnose_ms']:.0f} ms "
            f"(worker compiles {row['worker_compiles']})"
        )
    for row in families:
        print(
            f"{row['instance']} (N={row['num_nodes']}): diagnose "
            f"{row['compiled_diagnose_ms']:.1f} ms, {row['lookups']} lookups"
        )
    print(
        f"Q_{pooled['dimension']} sweep x{pooled['trials']} with "
        f"--workers {pooled['workers']} (cpu_count {pooled['cpu_count']}): "
        f"serial {pooled['serial_s']:.2f} s, pool {pooled['pool_s']:.2f} s "
        f"({pooled['speedup_vs_serial']}x); "
        f"worker compiles: pool {pooled['worker_compiles_pool']}"
    )
    print(
        f"Q_{distributed['dimension']} distributed: engine "
        f"{distributed['engine_ms']:.1f} ms vs derived "
        f"{distributed['legacy_simulator_ms']:.1f} ms "
        f"({distributed['engine_overhead']}x for real messages)"
    )
    if reduced:
        # Every measurement above asserts its answers; a reduced run has no
        # frontier rows and too small a head-to-head to gate or to record.
        print("reduced run: answers verified, BENCH_e1.json left as it is")
        return 0
    out = Path(__file__).resolve().parent.parent / "BENCH_e1.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if payload["target_met"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
