#!/usr/bin/env python
"""Serving-layer microbenchmark: one verified ``layers`` table.

End-to-end serving throughput is measured by ``perfbench/`` (per-layer
ledger, paired runs); this script times the stages a served batch is made
of.  It writes one row per combination of four factors:

* **topology**: the load mix, Q_12, Q_14 and S_7 (Q_8 and S_5 under
  ``--smoke``);
* **native**: the C kernels on, or off (the rows oracle; the switch is
  ``repro.core.native._forced_off``, restored after each row);
* **width**: ``diagnose_many`` stacks of 1 or 16 syndromes;
* **form**: ``mask``, a seeded ``ArraySyndrome.from_faults`` build, or
  ``buffer``, the same bytes adopted as an explicit syndrome.

Every row diagnoses the same 16 seeded syndromes (|F| = delta), builds
them afresh for each timed pass, and reports per-request milliseconds, best
of the row's ``repeats`` passes with garbage collection paused (as
``timeit`` does), under the perfbench ledger's names:

* ``syndrome.build_ms``: ``from_faults``, or the adoption of the bytes; with
  ``minor_faults_per_build``, the ``ru_minflt`` delta per build;
* ``digest.ms``: ``syndrome_digest`` of the syndrome's ``digest_source``;
* ``diagnosis.root_search_ms``, ``kernel.set_builder_ms``,
  ``csr.boundary_ms``: the three stages of ``diagnose_many``, timed one by
  one (the ledger reports the last two per batch, not per request);
* ``diagnose_many_ms``: the whole call, as served and as ``diagnose()``
  runs it, and ``unattributed_share``, the part of it the stages of the
  same pass do not cover, median over passes (negative when noise
  favours the whole call, which runs after the stages);
* ``diagnose_many_sets_ms``: the same call followed by a read of every
  result's ``healthy_nodes`` and ``tree_parent``, which builds them: what
  a caller that wants the grown set and the tree pays;
* ``syndrome.useful_share``: lookups per request over the slots.

With native off, a mask syndrome builds its buffer on its first read, in
the root search: ``diagnosis.root_search_ms`` and both whole-call columns
pay for it.

``verified`` requires each row's answers to be the injected fault sets, its
two whole-call passes to agree, and its ``outcome_sha256`` (root, probes,
partition level, lookups, accusations and digest of every seed) to equal
every other row of its topology: native against the rows oracle, width 1
against 16, mask against buffer.  ``--baseline PATH`` files an earlier
run's table as ``before`` (run this script with ``PYTHONPATH`` pointing at
the older tree's ``src``, and save its JSON aside), and requires every
``before`` row's fingerprint to equal its row here.  A full run writes
``BENCH_service.json`` and also requires ``light_batched_speedup``, Q_14
native mask at width 1 reading the sets against width 16 without reading
them, to be at least 3; ``--smoke`` runs one pass per row, gates on
``verified`` only and writes nothing.

Beside the table, ``cold_start`` records what a fresh ``serve`` process
pays before its first answer, from new interpreters (median of
``COLD_RUNS``): the milliseconds to import what ``serve --http`` imports,
the number of modules then loaded, the peak RSS (``ru_maxrss``, Linux's
``VmHWM``) after the imports and after resolving and warming each mix
topology with one seeded request, and whether that built any topology's
Python rows (``CSRAdjacency.rows``).  ``--baseline`` files the older run's
``cold_start`` as its ``before``.

``slot_turn`` times the in-process serving turn around those stages: a
``DiagnosisService`` without a pool, filing into a disk ``ResultStore``,
answers ``SLOT_TURN_ROUNDS`` calls of ``ROUND_SIZE`` seeded requests drawn
from the mix (the shape of perfbench's ``seeded_mix`` rounds), each one
``submit_many``, after one warm-up call per topology.  It records the
median milliseconds per call, the ``run_in_executor`` hops and store
``put_many`` commits per call, ``cpu_count`` and ``native``; ``verified``
requires every answer to equal ``run_direct``'s apart from
``elapsed_seconds`` and ``batch_size``, and ``outcome_sha256`` hashes the
served wire responses minus ``elapsed_seconds``.  ``--baseline`` files the
older run's record as its ``before`` and requires equal fingerprints.

Run with:  PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.service.loadgen import DEFAULT_MIX

SMOKE_MIX = (
    ("hypercube", {"dimension": 8}),
    ("star", {"n": 5}),
)
SEEDS = 16
WIDTHS = (1, 16)
FORMS = ("mask", "buffer")
#: Timed passes per row, native on and off (the rows oracle is slow).
REPEATS = {True: 25, False: 3}
LIGHT_BATCHED_TARGET = 3.0
STAGES = ("diagnosis.root_search_ms", "kernel.set_builder_ms", "csr.boundary_ms")
KEY = ("family", "params", "native", "width", "form")
#: Fresh interpreters per cold-start record (one under ``--smoke``).
COLD_RUNS = 5
#: Calls of the slot-turn record (a few under ``--smoke``) and their size.
SLOT_TURN_ROUNDS = 120
ROUND_SIZE = 8

#: One cold start, run as ``python -c COLD_START MIX_JSON``: it prints one
#: JSON record of :func:`measure_cold_start`'s fields.
COLD_START = """
import json, resource, sys, time
def peak_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
start = time.perf_counter()
import repro.cli
from repro.service import DiagnosisRequest, DiagnosisService, HttpFrontend
import_ms = (time.perf_counter() - start) * 1e3
modules, import_peak = len(sys.modules), peak_mb()
from repro.service.executor import resolve_topology, run_batch_local
rows_built = False
for family, params in json.loads(sys.argv[1]):
    network, csr = resolve_topology(family, params)
    run_batch_local(network, csr, [DiagnosisRequest.seeded(family, params, seed=1)])
    rows_built = rows_built or csr._rows is not None
print(json.dumps({
    "import_ms": round(import_ms, 1), "modules": modules,
    "peak_rss_import_mb": import_peak, "peak_rss_warm_mb": peak_mb(),
    "modules_warm": len(sys.modules), "rows_built": rows_built,
}))
"""


@contextlib.contextmanager
def native_switch(on: bool):
    """Force the native kernels off (or leave them on) for one block."""
    from repro.core import native

    saved = native._forced_off
    native._forced_off = not on
    try:
        yield native.native_kernel_active()
    finally:
        native._forced_off = saved


def outcome(result):
    if isinstance(result, Exception):
        return repr(result)
    return (sorted(result.faulty), result.healthy_root,
            [(p.start, p.certified, p.lookups) for p in result.probes],
            result.partition_level, result.lookups)


def measure_row(network, csr, faults, raws, *, width, form, repeats) -> dict:
    """One row of the table, on the current native setting."""
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.diagnosis import GeneralDiagnoser
    from repro.core.set_builder import ProbeScratch, set_builder_many
    from repro.service.requests import syndrome_digest

    diagnoser = GeneralDiagnoser(network)
    delta = network.diagnosability()
    clock = time.perf_counter

    def build():
        if form == "mask":
            return [ArraySyndrome.from_faults(csr, fault_set, seed=seed)
                    for seed, fault_set in enumerate(faults)]
        return [ArraySyndrome(csr, raw) for raw in raws]

    def stacks(syndromes):
        return [syndromes[i:i + width] for i in range(0, len(syndromes), width)]

    def diagnose(read_sets):
        results, elapsed = [], 0.0
        for stack in stacks(build()):
            t0 = clock()
            outcomes = diagnoser.diagnose_many(stack)
            if read_sets:
                for outcome in outcomes:
                    if not isinstance(outcome, Exception):
                        outcome.healthy_nodes, outcome.tree_parent
            elapsed += clock() - t0
            results += outcomes
        return results, elapsed

    def timed_pass():
        times = dict.fromkeys(STAGES, 0.0)
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = clock()
        syndromes = build()
        times["syndrome.build_ms"] = clock() - t0
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
        t0 = clock()
        digests = [syndrome_digest(*s.digest_source) for s in syndromes]
        times["digest.ms"] = clock() - t0
        for stack in stacks(syndromes):
            scratch = ProbeScratch.create(csr)
            t0 = clock()
            roots = [diagnoser.find_healthy_root(s, scratch=scratch)[0] for s in stack]
            t1 = clock()
            finals = set_builder_many(network, stack, roots, diagnosability=delta)
            t2 = clock()
            csr.boundary_many([final.member_mask for final in finals])
            t3 = clock()
            for name, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
                times[name] += seconds
        plain, times["diagnose_many_ms"] = diagnose(False)
        read, times["diagnose_many_sets_ms"] = diagnose(True)
        return times, minflt, plain, read, digests

    best: dict[str, float] = {}
    minflt, shares = 0, []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            times, taken, plain, read, digests = timed_pass()
        finally:
            gc.enable()
        minflt += taken
        shares.append(1 - sum(times[name] for name in STAGES) / times["diagnose_many_ms"])
        for name, seconds in times.items():
            best[name] = min(best.get(name, float("inf")), seconds)

    ms = {name: round(seconds * 1e3 / SEEDS, 4) for name, seconds in best.items()}
    lookups = sum(r.lookups for r in plain if not isinstance(r, Exception))
    fingerprint = hashlib.sha256(repr([
        (outcome(result), digest) for result, digest in zip(plain, digests)
    ]).encode()).hexdigest()
    return {
        "num_nodes": network.num_nodes,
        "bytes": csr.num_pairs,
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        **ms,
        "minor_faults_per_build": round(minflt / (repeats * SEEDS), 1),
        "unattributed_share": round(statistics.median(shares), 3),
        "syndrome.useful_share": round(lookups / (SEEDS * csr.num_pairs), 5),
        "outcome_sha256": fingerprint,
        "verified": (
            [outcome(r) for r in plain] == [outcome(r) for r in read]
            and all(getattr(r, "faulty", None) == f for r, f in zip(plain, faults))
        ),
    }


def measure_layers(mix, *, smoke: bool) -> list[dict]:
    """Every factor combination, verified against its topology's first row."""
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.faults import random_faults
    from repro.networks.registry import compiled_network

    rows = []
    for family, params in mix:
        network, csr = compiled_network(family, **params)
        delta = network.diagnosability()
        faults = [random_faults(network, delta, seed=seed) for seed in range(SEEDS)]
        raws = [bytes(ArraySyndrome.from_faults(csr, f, seed=seed).buffer)
                for seed, f in enumerate(faults)]
        first = len(rows)
        for native, width, form in itertools.product((True, False), WIDTHS, FORMS):
            with native_switch(native) as active:
                row = measure_row(network, csr, faults, raws, width=width, form=form,
                                  repeats=1 if smoke else REPEATS[native])
            rows.append({"family": family, "params": dict(params), "native": active,
                         "width": width, "form": form, **row})
        reference = rows[first]["outcome_sha256"]
        for row in rows[first:]:
            row["verified"] &= row["outcome_sha256"] == reference
    return rows


def measure_cold_start(mix, *, runs: int) -> dict:
    """Median of ``runs`` fresh-interpreter cold starts (see the module
    docstring), on the ``repro`` this interpreter imports."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    arg = json.dumps([[family, dict(params)] for family, params in mix])
    records = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", COLD_START, arg], env=env,
                             capture_output=True, text=True, check=True).stdout
        records.append(json.loads(out.strip().splitlines()[-1]))
    return {name: statistics.median(record[name] for record in records)
            if isinstance(records[0][name], float) else records[-1][name]
            for name in records[0]}


def measure_slot_turn(mix, *, rounds: int) -> dict:
    """The in-process serving turn: per-call time, executor hops and store
    commits (see the module docstring)."""
    import asyncio
    import dataclasses
    import tempfile

    from repro.core import native
    from repro.service import DiagnosisRequest, DiagnosisService, ResultStore
    from repro.service.executor import resolve_topology, run_direct
    from repro.service.loadgen import LoadSpec, build_client_streams

    stream = build_client_streams(LoadSpec.from_mix(
        mix, clients=1, requests_per_client=rounds * ROUND_SIZE, seed=7,
        seed_pool=10**9,
    ))[0]
    calls = [stream[i:i + ROUND_SIZE] for i in range(0, len(stream), ROUND_SIZE)]
    warm = [DiagnosisRequest.seeded(family, params, seed=10**9)
            for family, params in mix]
    counts = {"hops": 0, "commits": 0}
    run_in_executor = asyncio.BaseEventLoop.run_in_executor

    def counted_hop(loop, *args):
        counts["hops"] += 1
        return run_in_executor(loop, *args)

    async def serve(store):
        async with DiagnosisService(store=store) as service:
            await service.submit_many(warm)
            counts.update(hops=0, commits=0)
            answers, times = [], []
            for call in calls:
                t0 = time.perf_counter()
                answers += await service.submit_many(call)
                times.append(time.perf_counter() - t0)
            return answers, times

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "results.sqlite")
        put_many = store.put_many

        def counted_commit(pairs):
            counts["commits"] += 1
            return put_many(pairs)

        store.put_many = counted_commit
        asyncio.BaseEventLoop.run_in_executor = counted_hop
        try:
            answers, times = asyncio.run(serve(store))
        finally:
            asyncio.BaseEventLoop.run_in_executor = run_in_executor
            store.close()
    topologies = {}
    verified = True
    wire = []
    for request, answer in zip(stream, answers):
        network, csr = topologies.setdefault(
            request.topology_key,
            resolve_topology(request.family, request.network_kwargs),
        )
        direct = run_direct(request, network=network, csr=csr)
        verified &= answer.source == "computed" and dataclasses.replace(
            answer, batch_size=direct.batch_size,
            elapsed_seconds=direct.elapsed_seconds,
        ) == direct
        record = answer.to_wire()
        del record["elapsed_seconds"]
        wire.append(record)
    return {
        "rounds": rounds,
        "round_size": ROUND_SIZE,
        "cpu_count": os.cpu_count(),
        "native": native.native_kernel_active(),
        "ms_per_call": round(statistics.median(times) * 1e3, 3),
        "hops_per_call": round(counts["hops"] / rounds, 3),
        "commits_per_call": round(counts["commits"] / rounds, 3),
        "outcome_sha256": hashlib.sha256(
            json.dumps(wire, sort_keys=True).encode()
        ).hexdigest(),
        "verified": verified,
    }


def key(row) -> str:
    return json.dumps([row[name] for name in KEY], sort_keys=True)


def light_batched(rows) -> dict | None:
    """Q_14, native, mask: width 1 reading the sets against width 16 not
    reading them, per request, split into its two factors: reading the
    sets, and batching."""
    cell = {
        row["width"]: row for row in rows
        if row["family"] == "hypercube" and row["params"] == {"dimension": 14}
        and row["native"] and row["form"] == "mask"
    }
    if set(cell) != set(WIDTHS):
        return None
    sets, plain, batched = (cell[1]["diagnose_many_sets_ms"],
                            cell[1]["diagnose_many_ms"], cell[16]["diagnose_many_ms"])
    return {
        "read_sets_factor": round(sets / plain, 2),
        "batching_speedup": round(plain / batched, 2),
        "light_batched_speedup": round(sets / batched, 2),
        "light_batched_target": LIGHT_BATCHED_TARGET,
        "light_batched_target_met": sets / batched >= LIGHT_BATCHED_TARGET,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    mix = SMOKE_MIX if smoke else DEFAULT_MIX
    before = cold_before = turn_before = None
    if "--baseline" in argv:
        previous = json.loads(Path(argv[argv.index("--baseline") + 1]).read_text())
        before = previous["layers"]
        cold_before = previous.get("cold_start", {}).get("after")
        turn_before = previous.get("slot_turn", {}).get("after")
    cold_start = measure_cold_start(mix, runs=1 if smoke else COLD_RUNS)
    print(f"cold start: {cold_start}")
    slot_turn = measure_slot_turn(mix, rounds=4 if smoke else SLOT_TURN_ROUNDS)
    print(f"slot turn: {slot_turn}")
    rows = measure_layers(mix, smoke=smoke)
    fingerprints = {key(row): row["outcome_sha256"] for row in rows}
    verified = (
        all(row["verified"] for row in rows) and slot_turn["verified"]
        and all(fingerprints.get(key(row)) == row["outcome_sha256"]
                for row in before or ())
        and (turn_before is None
             or turn_before["outcome_sha256"] == slot_turn["outcome_sha256"])
    )
    for row in rows:
        print(
            f"{row['family']}{row['params']} native={row['native']:d} "
            f"width={row['width']:>2} {row['form']:>6}: build "
            f"{row['syndrome.build_ms']} digest {row['digest.ms']} root "
            f"{row['diagnosis.root_search_ms']} kernel "
            f"{row['kernel.set_builder_ms']} boundary {row['csr.boundary_ms']} "
            f"| call {row['diagnose_many_ms']} reading sets "
            f"{row['diagnose_many_sets_ms']} ms/request, verified {row['verified']}"
        )
    gate = light_batched(rows)
    print(f"light_batched: {gate}; verified {verified}")
    if smoke:
        return 0 if verified else 1
    payload = {
        "benchmark": "bench_service",
        "description": (
            "one row per topology x native x width x syndrome form: per-request "
            "ms of each stage of a served batch, under the perfbench ledger's "
            "names, best of the row's repeats; before = the same harness on "
            "the older tree's src"
        ),
        "mix": [{"family": family, "params": dict(params)} for family, params in mix],
        "seeds": SEEDS,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "layers": rows,
        "before": before,
        "cold_start": {"after": cold_start, "before": cold_before},
        "slot_turn": {"after": slot_turn, "before": turn_before},
        **(gate or {"light_batched_target_met": False}),
        "verified": verified,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if verified and payload["light_batched_target_met"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
