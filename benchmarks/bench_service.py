#!/usr/bin/env python
"""Serving-layer microbenchmarks: the batched kernel, the digest, the build.

End-to-end serving throughput is measured by ``perfbench/`` (per-layer
ledger, paired runs); this script times the pieces a served batch is made
of, each verified before any number is recorded:

* **batched_kernel** times one stacked ``diagnose_many`` call against the
  sequential per-request ``diagnose`` loop on Q_14 at width 16, requiring
  bit-identical outcomes;
* **digest** times the content digest per topology of the mix on four
  buffers (a seeded build, its explicit form, all-zero, all-one): the dense
  SHA-256 of the whole buffer it replaced against the canonical
  sparse-or-dense form, requiring the seeded and explicit forms to agree;
* **seeded_build** times one seeded syndrome per topology of the mix: the
  ``from_faults`` build, the minor page faults it takes, and
  ``diagnose_many`` at width 1 and 16, gated on the seeded syndromes
  diagnosing exactly as their explicit buffers.

Results land in ``BENCH_service.json``; a full run also requires the
stacked kernel to be >= 3x the sequential loop.

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

from repro.service.loadgen import DEFAULT_MIX

SMOKE_MIX = (
    ("hypercube", {"dimension": 8}),
    ("star", {"n": 5}),
)


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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    mix = SMOKE_MIX if smoke else DEFAULT_MIX
    if "--seeded-build" in argv:
        rows = measure_seeded_build(mix)
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
    kernel = measure_kernel(smoke=smoke)
    digest_rows = measure_digest(mix)
    seeded_rows = measure_seeded_build(mix)
    seeded_ok = _seeded_build_verified(seeded_rows, seeded_before)
    payload = {
        "benchmark": "bench_service",
        "description": (
            "the pieces of a served batch, each verified: the stacked "
            "diagnose_many kernel vs the sequential loop, the content digest, "
            "and the seeded syndrome build"
        ),
        "mix": [{"family": family, "params": dict(params)} for family, params in mix],
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "results": [kernel],
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
    }
    print(
        f"{'batched_kernel':>15}: {kernel['stacked_rps']:>8} req/s stacked vs "
        f"{kernel['sequential_rps']} sequential on Q_{kernel['params']['dimension']} "
        f"at width {kernel['batch_width']} -> {kernel['kernel_speedup']}x "
        f"(set_builder_many {kernel['set_builder_many_seconds']} s, native "
        f"{kernel['native']}, bit-identical {kernel['verified_bit_identical']})"
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
    ok = (
        kernel["verified_bit_identical"]
        and payload["digest_verified"]
        and seeded_ok
    )
    if smoke:
        # The smoke kernel runs on Q_8, too small for the stacked pass to
        # pay off; it gates on correctness only.
        return 0 if ok else 1
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if ok and payload["kernel_target_met"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
