#!/usr/bin/env python
"""Serving-layer benchmark: coalesced-batched vs naive one-at-a-time.

Drives the seeded closed-loop load generator (`repro.service.loadgen`)
against three service configurations on the acceptance workload — a mixed
Q_12 / Q_14 / S_7 request stream with repeats:

* **naive** — no coalescing, no topology cache, no store: every request
  resolves (constructs + compiles) its topology from scratch and runs alone,
  the way a fresh CLI invocation serves one request;
* **batched** — the coalescing service with its bounded topology LRU and a
  result store, batches executed in-process;
* **batched_pooled** — the same, with batches dispatched as single
  shared-memory `WorkerPool` tasks (workers map the compiled topology and
  never compile it — the reported deltas prove it);
* **batched_http** — the batched service behind the stdlib HTTP/JSON
  frontend (`repro.service.http`), clients driving the real wire path
  (keep-alive connections, JSON bodies) so the transport tax is measured,
  not guessed.

Two further rows gate different properties: **batched_kernel** times one
stacked `diagnose_many` call against the sequential loop, and **fairness**
runs the adversarial multi-tenant mix (hot open-loop burst vs cold
closed-loop tenants under a per-tenant quota) twice, requiring a
byte-identical shed split and 100% cold-tenant completion.  The **digest**
section times the content digest per topology of the mix on four buffers
(a seeded build, its explicit form, all-zero, all-one): the dense SHA-256
of the whole buffer it replaced against the canonical sparse-or-dense form,
requiring the seeded and explicit forms to agree.  The **seeded_build**
section times one seeded syndrome per topology of the mix: the
``from_faults`` build, the minor page faults it takes, and
``diagnose_many`` at width 1 and 16, gated on the seeded syndromes
diagnosing exactly as their explicit buffers.

Every batched response is verified bit-identical to the direct
`GeneralDiagnoser` pipeline before any number is recorded.  Results land in
``BENCH_service.json``; the acceptance target is **>= 3x** batched-over-naive
throughput with zero worker-side compiles.

Run with:  PYTHONPATH=src python benchmarks/bench_service.py
(--smoke shrinks the mix for CI and skips the JSON write; --baseline PATH
copies the ``batched_kernel`` row of an earlier run's JSON into
``batched_kernel_before``, so one file carries a before/after pair measured
by the same harness — run this script with ``PYTHONPATH`` pointing at the
older tree's ``src`` to produce the before, and save that JSON aside;
--seeded-build PATH runs only the seeded_build section and writes its rows
to PATH, and --seeded-before PATH files such rows, measured against an
older tree's ``src``, as ``seeded_build.before``, requiring both trees'
outcome fingerprints to agree).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.service import LoadSpec, ResultStore, run_load_sync
from repro.service.loadgen import DEFAULT_MIX

SMOKE_MIX = (
    ("hypercube", {"dimension": 8}),
    ("star", {"n": 5}),
)


def _mode_entry(name: str, report, *, verified: bool) -> dict:
    stats = report.stats
    return {
        "mode": name,
        "wall_seconds": round(report.wall_seconds, 3),
        "throughput_rps": round(report.throughput_rps, 2),
        "sources": report.source_counts(),
        "errors": report.errors,
        "rejections": report.rejections,
        "verified_bit_identical": verified and report.mismatches == 0,
        "batches": stats["batches"],
        "coalesced_batches": stats["coalesced_batches"],
        "mean_batch_size": stats["mean_batch_size"],
        "worker_compiles": stats["worker_compiles"],
        "topology_resolutions": stats["topology_cache"]["misses"],
        "store_hits": stats["store_hits"],
        "coalesced_duplicates": stats["coalesced_duplicates"],
        "latency_ms": stats["latency_ms"],
    }


def measure(spec: LoadSpec, *, workers: int, verify: bool) -> list[dict]:
    from repro.parallel import WorkerPool
    from repro.service import (
        BackgroundHttpServer,
        DiagnosisService,
        run_load_http_sync,
    )

    naive = run_load_sync(spec, naive=True, verify=verify)
    batched = run_load_sync(spec, store=ResultStore(), verify=verify)
    with WorkerPool(max_workers=workers) as pool:
        pooled = run_load_sync(spec, pool=pool, store=ResultStore(), verify=verify)
    # The HTTP row serves the identical batched configuration over the wire
    # (store built inside the server's thread: SQLite is thread-affine).
    with BackgroundHttpServer(
        lambda: DiagnosisService(store=ResultStore())
    ) as server:
        http = run_load_http_sync(spec, server.address, verify=verify)
    return [
        _mode_entry("naive", naive, verified=verify),
        _mode_entry("batched", batched, verified=verify),
        _mode_entry("batched_pooled", pooled, verified=verify),
        _mode_entry("batched_http", http, verified=verify),
    ]


def measure_fairness(*, smoke: bool) -> dict:
    """The ``fairness`` row: the adversarial multi-tenant mix.

    One hot tenant bursts open-loop into a per-tenant quota while cold
    tenants trickle closed-loop.  The row runs the identical spec twice and
    records whether the shed splits agreed byte for byte (admission is a
    pure function of submission order) and whether every cold request
    completed while the hot tenant was being shed."""
    from repro.service import FairnessSpec, run_fairness_sync

    spec = FairnessSpec.from_mix(
        SMOKE_MIX if smoke else DEFAULT_MIX,
        hot_requests=16 if smoke else 48,
        cold_tenants=3 if smoke else 6,
        cold_requests_per_tenant=3 if smoke else 6,
        max_queue_per_tenant=4,
        seed=0,
        seed_pool=64,  # distinct syndromes: no coalescing shortcut softens the burst
    )
    report = run_fairness_sync(spec)
    repeat = run_fairness_sync(spec)
    first = json.dumps(report.split(), sort_keys=True)
    second = json.dumps(repeat.split(), sort_keys=True)
    return {
        "mode": "fairness",
        "hot_requests": spec.hot_requests,
        "hot_served": report.hot_served,
        "hot_shed": report.hot_shed,
        "cold_tenants": spec.cold_tenants,
        "cold_requests": sum(report.cold_expected.values()),
        "cold_completion": report.cold_completion,
        "max_queue_per_tenant": spec.max_queue_per_tenant,
        "wall_seconds": round(report.wall_seconds, 3),
        "shed_split_deterministic": first == second,
        "hot_shed_under_pressure": report.hot_shed > 0,
        "cold_never_shed": report.cold_completion == 1.0,
    }


def measure_kernel(*, smoke: bool) -> dict:
    """The ``batched_kernel`` row: one stacked ``diagnose_many`` call vs the
    sequential per-request ``diagnose`` loop the serving path used before
    the kernel existed.  Syndromes are built outside the timed region (both
    modes pay that identically); the stacked call runs in the service's
    light mode (no healthy-set materialisation — responses only carry the
    accusation set and counters).  Outcomes are verified bit-identical on
    accusations, root, probes, partition level and lookup count before any
    time is recorded.  ``set_builder_many_seconds`` times the final stacked
    ``Set_Builder`` pass alone (the ledger's ``kernel`` layer), from the
    healthy roots the stacked call found."""
    import time

    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.diagnosis import GeneralDiagnoser
    from repro.core.faults import random_faults
    from repro.core.native import native_kernel_active
    from repro.core.set_builder import set_builder_many
    from repro.networks.registry import compiled_network

    family, params = "hypercube", {"dimension": 8 if smoke else 14}
    width, repeats = 16, 3
    network, csr = compiled_network(family, **params)
    diagnoser = GeneralDiagnoser(network)
    delta = network.diagnosability()
    syndromes = [
        ArraySyndrome.from_faults(
            csr, random_faults(network, delta, seed=seed), seed=seed
        )
        for seed in range(width)
    ]

    references = [diagnoser.diagnose(s) for s in syndromes]
    stacked = diagnoser.diagnose_many(syndromes, include_sets=False)
    identical = all(
        out.faulty == ref.faulty
        and out.healthy_root == ref.healthy_root
        and out.probes == ref.probes
        and out.partition_level == ref.partition_level
        and out.lookups == ref.lookups
        for out, ref in zip(stacked, references)
    )

    roots = [out.healthy_root for out in stacked]
    sequential_best = stacked_best = layer_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        set_builder_many(
            network, syndromes, roots, diagnosability=delta, materialize=False
        )
        layer_best = min(layer_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for syndrome in syndromes:
            diagnoser.diagnose(syndrome)
        sequential_best = min(sequential_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        diagnoser.diagnose_many(syndromes, include_sets=False)
        stacked_best = min(stacked_best, time.perf_counter() - t0)

    return {
        "mode": "batched_kernel",
        "family": family,
        "params": params,
        "num_nodes": network.num_nodes,
        "batch_width": width,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "native": native_kernel_active(),
        "set_builder_many_seconds": round(layer_best, 4),
        "sequential_seconds": round(sequential_best, 4),
        "stacked_seconds": round(stacked_best, 4),
        "sequential_rps": round(width / sequential_best, 2),
        "stacked_rps": round(width / stacked_best, 2),
        "kernel_speedup": round(sequential_best / stacked_best, 2),
        "verified_bit_identical": identical,
    }


def measure_digest(mix) -> list[dict]:
    """The ``digest`` rows: ms per digest, before and after, per buffer.

    ``before_ms`` is SHA-256 over the whole buffer (the dense digest the
    canonical form replaced); ``after_ms`` is
    :func:`~repro.service.requests.syndrome_digest`.  The ``seeded`` case
    hands over the offsets and values its mask-form build recorded, as the
    executor does; ``explicit`` is the same syndrome as raw bytes, scanned
    once, as an explicit request is at admission.  Both must give one
    digest (``verified``).  Each time is the best of ``repeats`` calls.
    """
    import hashlib
    import time

    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.faults import random_faults
    from repro.core.native import native_kernel_active
    from repro.networks.registry import compiled_network
    from repro.service.requests import syndrome_digest

    repeats = 30

    def best_ms(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return round(best * 1e3, 4)

    rows = []
    for family, params in mix:
        network, csr = compiled_network(family, **params)
        faults = random_faults(network, network.diagnosability(), seed=1)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=1)
        recorded = syndrome.digest_source
        raw = bytes(syndrome.buffer)
        seeded = syndrome_digest(*recorded)
        cases = {
            "seeded": (raw, recorded),
            "explicit": (raw, (raw,)),
            "all_zero": (bytes(len(raw)), (bytes(len(raw)),)),
            "all_one": (b"\x01" * len(raw), (b"\x01" * len(raw),)),
        }
        for case, (buffer, args) in cases.items():
            digest = syndrome_digest(*args)
            rows.append({
                "family": family,
                "params": dict(params),
                "case": case,
                "bytes": len(raw),
                "nonzero": len(buffer) - bytes(buffer).count(0),
                "scheme": digest.partition(":")[0],
                "before_ms": best_ms(lambda: hashlib.sha256(buffer).hexdigest()),
                "after_ms": best_ms(lambda: syndrome_digest(*args)),
                "cpu_count": os.cpu_count(),
                "native": native_kernel_active(),
                "verified": case not in ("seeded", "explicit") or digest == seeded,
            })
    return rows


def measure_seeded_build(mix) -> list[dict]:
    """The ``seeded_build`` rows: one topology of the mix each.

    ``build_ms`` is the best ``ArraySyndrome.from_faults`` call over
    ``rounds`` batches of ``width`` seeds; ``minor_faults_per_build`` is
    the ``ru_minflt`` delta over those builds, per build, with each batch
    kept alive until the next is built, as a served batch is.
    ``diagnose_ms_width_1`` and ``diagnose_ms_width_16`` are the best
    ``diagnose_many`` calls on prebuilt syndromes (the service's light
    mode).  ``verified`` requires every seeded syndrome to diagnose exactly
    as its explicit buffer; ``outcome_sha256`` fingerprints those
    diagnoses and the buffers' digests, so rows measured against two trees
    can be compared.
    """
    import hashlib
    import resource
    import time

    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.diagnosis import GeneralDiagnoser
    from repro.core.faults import random_faults
    from repro.core.native import native_kernel_active
    from repro.networks.registry import compiled_network
    from repro.service.requests import syndrome_digest

    width, rounds, repeats = 16, 8, 15

    def outcome(result):
        return (sorted(result.faulty), result.healthy_root,
                [(p.start, p.certified, p.lookups) for p in result.probes],
                result.partition_level, result.lookups)

    rows = []
    for family, params in mix:
        network, csr = compiled_network(family, **params)
        delta = network.diagnosability()
        faults = [random_faults(network, delta, seed=seed) for seed in range(width)]
        diagnoser = GeneralDiagnoser(network)
        build_best = float("inf")
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        batch = []
        for _ in range(rounds):
            built = []
            for seed, fault_set in enumerate(faults):
                t0 = time.perf_counter()
                built.append(ArraySyndrome.from_faults(csr, fault_set, seed=seed))
                build_best = min(build_best, time.perf_counter() - t0)
            batch = built
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt

        def best_ms(syndromes) -> float:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                diagnoser.diagnose_many(syndromes, include_sets=False)
                best = min(best, time.perf_counter() - t0)
            return round(best * 1e3, 4)

        width_1 = best_ms(batch[:1])
        width_16 = best_ms(batch)
        seeded = diagnoser.diagnose_many(batch, include_sets=False)
        explicit = diagnoser.diagnose_many(
            [ArraySyndrome(csr, bytes(s.buffer)) for s in batch], include_sets=False
        )
        fingerprint = hashlib.sha256(repr([
            (outcome(result), syndrome_digest(bytes(s.buffer)))
            for result, s in zip(seeded, batch)
        ]).encode()).hexdigest()
        rows.append({
            "family": family,
            "params": dict(params),
            "bytes": csr.num_pairs,
            "build_ms": round(build_best * 1e3, 4),
            "minor_faults_per_build": round(minflt / (rounds * width), 1),
            "diagnose_ms_width_1": width_1,
            "diagnose_ms_width_16": width_16,
            "cpu_count": os.cpu_count(),
            "native": native_kernel_active(),
            "outcome_sha256": fingerprint,
            "verified": [outcome(r) for r in seeded] == [outcome(r) for r in explicit],
        })
    return rows


def _seeded_build_verified(rows, before) -> bool:
    """Every row verified, and an older tree's rows (if any) agree on the
    outcome fingerprint of every topology."""
    if not all(row["verified"] for row in rows):
        return False
    if before is None:
        return True
    def topology(row):
        return row["family"], json.dumps(row["params"], sort_keys=True)

    fingerprints = {topology(row): row["outcome_sha256"] for row in rows}
    return all(
        fingerprints.get(topology(row)) == row["outcome_sha256"] for row in before
    )


def measure_width_curve() -> list[dict]:
    """Throughput vs stacked-kernel width on the acceptance mix.

    Every row serves the same number of requests (64) over the full
    Q_12/Q_14/S_7 mix with ``width`` concurrent clients and
    ``max_batch_size=width``; a large seed pool keeps the requests distinct,
    so no store or coalesced-duplicate shortcut flatters wider batches —
    the curve isolates kernel-width amortisation.  Every row is verified
    bit-identical against the direct pipeline."""
    curve = []
    for width in (1, 4, 16, 64):
        spec = LoadSpec.from_mix(
            DEFAULT_MIX,
            clients=width,
            requests_per_client=max(1, 64 // width),
            seed=0,
            seed_pool=64,
        )
        report = run_load_sync(spec, max_batch_size=width, verify=True)
        stats = report.stats
        curve.append(
            {
                "width": width,
                "total_requests": spec.total_requests,
                "wall_seconds": round(report.wall_seconds, 3),
                "throughput_rps": round(report.throughput_rps, 2),
                "batches": stats["batches"],
                "mean_batch_size": stats["mean_batch_size"],
                "worker_compiles": stats["worker_compiles"],
                "verified_bit_identical": report.mismatches == 0,
            }
        )
    return curve


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    if "--seeded-build" in argv:
        rows = measure_seeded_build(SMOKE_MIX if smoke else DEFAULT_MIX)
        Path(argv[argv.index("--seeded-build") + 1]).write_text(
            json.dumps(rows, indent=2) + "\n"
        )
        return 0 if all(row["verified"] for row in rows) else 1
    seeded_before = None
    if "--seeded-before" in argv:
        seeded_before = json.loads(
            Path(argv[argv.index("--seeded-before") + 1]).read_text()
        )
    baseline = None
    if "--baseline" in argv:
        previous = json.loads(Path(argv[argv.index("--baseline") + 1]).read_text())
        baseline = next(
            row for row in previous["results"] if row["mode"] == "batched_kernel"
        )
    mix = SMOKE_MIX if smoke else DEFAULT_MIX
    spec = LoadSpec.from_mix(
        mix,
        clients=4,
        requests_per_client=4 if smoke else 6,
        seed=0,
        seed_pool=4,
    )
    # Smoke runs verify too — it is the cheap part; what --smoke cuts is the
    # Q_14-sized topology work.
    modes = measure(spec, workers=2, verify=True)
    kernel = measure_kernel(smoke=smoke)
    modes.append(kernel)
    fairness = measure_fairness(smoke=smoke)
    modes.append(fairness)
    digest_rows = measure_digest(mix)
    seeded_rows = measure_seeded_build(mix)
    seeded_ok = _seeded_build_verified(seeded_rows, seeded_before)
    by_name = {entry["mode"]: entry for entry in modes}
    speedup = round(
        by_name["batched"]["throughput_rps"]
        / max(by_name["naive"]["throughput_rps"], 1e-9),
        2,
    )
    pooled_speedup = round(
        by_name["batched_pooled"]["throughput_rps"]
        / max(by_name["naive"]["throughput_rps"], 1e-9),
        2,
    )
    http_speedup = round(
        by_name["batched_http"]["throughput_rps"]
        / max(by_name["naive"]["throughput_rps"], 1e-9),
        2,
    )
    http_transport_tax = round(
        1.0
        - by_name["batched_http"]["throughput_rps"]
        / max(by_name["batched"]["throughput_rps"], 1e-9),
        3,
    )
    width_curve = [] if smoke else measure_width_curve()
    payload = {
        "benchmark": "bench_service",
        "description": (
            "closed-loop load generation against the diagnosis service: "
            "coalesced-batched serving (bounded topology LRU + result store, "
            "in-process and worker-pool batch dispatch) vs naive "
            "one-at-a-time serving that resolves every request from scratch"
        ),
        "workload": {
            "mix": [
                {"family": family, "params": dict(params)} for family, params in mix
            ],
            "clients": spec.clients,
            "requests_per_client": spec.requests_per_client,
            "total_requests": spec.total_requests,
            "seed": spec.seed,
            "seed_pool": spec.seed_pool,
        },
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "results": modes,
        "batched_speedup_vs_naive": speedup,
        "pooled_speedup_vs_naive": pooled_speedup,
        "http_speedup_vs_naive": http_speedup,
        "http_transport_tax": http_transport_tax,
        "batch_width_curve": width_curve,
        "kernel_speedup_at_width_16": kernel["kernel_speedup"],
        "batched_kernel_before": baseline,
        "kernel_target_speedup": 3.0,
        "kernel_target_met": kernel["kernel_speedup"] >= 3.0,
        "digest": {
            "description": (
                "content digest per request, ms: dense SHA-256 of the whole "
                "buffer (before) vs the canonical sparse-or-dense digest "
                "(after); seeded hands over the build's nonzero offsets "
                "and values, "
                "explicit scans the raw bytes once"
            ),
            "results": digest_rows,
        },
        "digest_verified": all(row["verified"] for row in digest_rows),
        "seeded_build": {
            "description": (
                "one seeded syndrome per topology: best from_faults ms, minor "
                "page faults per build (ru_minflt), best diagnose_many ms at "
                "width 1 and 16; before = the same harness on the older "
                "tree's src"
            ),
            "before": seeded_before,
            "results": seeded_rows,
        },
        "seeded_build_verified": seeded_ok,
        "fairness_ok": (
            fairness["shed_split_deterministic"]
            and fairness["hot_shed_under_pressure"]
            and fairness["cold_never_shed"]
        ),
        "target_speedup": 3.0,
        "target_met": speedup >= 3.0,
        "zero_recompilation": (
            by_name["batched"]["worker_compiles"] == 0
            and by_name["batched_pooled"]["worker_compiles"] == 0
        ),
        "all_modes_bit_identical": all(
            entry["verified_bit_identical"]
            for entry in modes
            if "verified_bit_identical" in entry  # fairness gates differently
        ),
        "note": (
            "naive topology_resolutions equals its request count (every "
            "request compiles afresh); batched resolves each distinct "
            "topology once and serves repeats from the store or an "
            "in-flight batch"
        ),
    }
    for entry in modes:
        if entry["mode"] in ("batched_kernel", "fairness"):
            continue  # printed separately below (different shapes)
        print(
            f"{entry['mode']:>15}: {entry['throughput_rps']:>8} req/s "
            f"({entry['wall_seconds']} s, {entry['batches']} batches, "
            f"compiles {entry['topology_resolutions']}, "
            f"worker compiles {entry['worker_compiles']}, "
            f"store hits {entry['store_hits']}, "
            f"bit-identical {entry['verified_bit_identical']})"
        )
    print(
        f"{'batched_kernel':>15}: {kernel['stacked_rps']:>8} req/s stacked vs "
        f"{kernel['sequential_rps']} sequential on Q_{kernel['params']['dimension']} "
        f"at width {kernel['batch_width']} -> {kernel['kernel_speedup']}x "
        f"(set_builder_many {kernel['set_builder_many_seconds']} s, native "
        f"{kernel['native']}, bit-identical {kernel['verified_bit_identical']})"
    )
    print(
        f"{'fairness':>15}: hot {fairness['hot_served']}/"
        f"{fairness['hot_requests']} served, {fairness['hot_shed']} shed "
        f"(quota {fairness['max_queue_per_tenant']}); cold completion "
        f"{fairness['cold_completion']:.0%}, split deterministic "
        f"{fairness['shed_split_deterministic']}"
    )
    for row in digest_rows:
        print(
            f"{'digest':>15}: {row['family']}{row['params']} {row['case']:>8} "
            f"({row['scheme']}): {row['before_ms']} ms -> {row['after_ms']} ms"
        )
    for row in seeded_rows:
        print(
            f"{'seeded_build':>15}: {row['family']}{row['params']}: build "
            f"{row['build_ms']} ms, {row['minor_faults_per_build']} faults, "
            f"diagnose {row['diagnose_ms_width_1']} / "
            f"{row['diagnose_ms_width_16']} ms at width 1 / 16, "
            f"verified {row['verified']}"
        )
    for row in width_curve:
        print(
            f"  width {row['width']:>2}: {row['throughput_rps']:>8} req/s "
            f"({row['batches']} batches, mean width {row['mean_batch_size']}, "
            f"bit-identical {row['verified_bit_identical']})"
        )
    print(
        f"batched vs naive: {speedup}x (pooled {pooled_speedup}x, "
        f"http {http_speedup}x, transport tax {http_transport_tax:.1%}); "
        f"target >= 3.0x -> {'met' if payload['target_met'] else 'MISSED'}"
    )
    if smoke:
        # The smoke mix is too small for compile amortisation to dominate;
        # it gates on correctness and the zero-recompilation evidence only
        # (the kernel row's bit-identical check included).
        ok = (
            payload["all_modes_bit_identical"]
            and payload["zero_recompilation"]
            and kernel["verified_bit_identical"]
            and payload["fairness_ok"]
            and payload["digest_verified"]
            and seeded_ok
        )
        return 0 if ok else 1
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    ok = (
        payload["target_met"]
        and payload["kernel_target_met"]
        and payload["fairness_ok"]
        and payload["digest_verified"]
        and seeded_ok
        and payload["all_modes_bit_identical"]
        and all(row["verified_bit_identical"] for row in width_curve)
    )
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
