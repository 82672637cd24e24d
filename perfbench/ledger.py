"""The layer ledger: spans around each layer's entry points, and their sums.

:func:`install` runs inside the server process (see ``traced_serve.py``).
It replaces the function at each layer boundary with a wrapper that records
one span ``(name, start, end, value)`` on the process-wide monotonic clock,
which every process on the machine shares, so pool-worker spans line up
with the server's.  Pool workers are forked after installation and inherit
the wrappers; the wrapped ``run_batch_task`` hands each task's worker-side
spans back to the server inside the task's ``stats`` dict.

:func:`layer_metrics` turns the dumped spans of one measured window into the
``per_layer`` metrics named in ``BENCHMARK.json``.  It runs in the benchmark
process and imports nothing from the program.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import time

#: Spans whose union must explain the time the edge spends on requests.
#: Containers (``http.request``, ``executor.batch``, ``diagnosis.batch``,
#: ``pool.task``, ``pool.worker_task``) are left out on purpose: they would
#: cover their own gaps.
LEAVES = frozenset({
    "http.read", "http.parse", "http.respond", "http.encode",
    "service.queue_wait",
    "store.get", "store.put",
    "executor.resolve",
    "syndrome.place", "syndrome.build", "syndrome.adopt",
    "diagnosis.setup", "diagnosis.root_search", "kernel.set_builder", "csr.boundary",
    "digest",
    "pool.publish", "pool.transfer", "pool.attach",
})

#: Stages that run inside one batch execution (in-process or pool task).
BATCH_STAGES = frozenset({
    "pool.attach", "syndrome.place", "syndrome.build", "syndrome.adopt",
    "diagnosis.setup", "diagnosis.root_search", "kernel.set_builder", "csr.boundary", "digest",
})

#: How the benchmark reads ``service.response`` span values.
SOURCES = {"computed": 0, "store": 1, "coalesced": 2}

WORKER_SPANS_KEY = "perfbench_spans"


class Tracer:
    """In-memory span sink of one process (a forked worker gets a copy)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, float | None]] = []

    def add(self, name: str, start: float, end: float, value=None) -> None:
        self.spans.append((name, start, end, value))

    def timed(self, name: str, fn, value=None):
        """``fn`` wrapped to record one span per call.

        ``value(result, args)`` computes the span's number from a successful
        call; a call that raises records its span without one.
        """
        clock = time.perf_counter
        add = self.spans.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                add((name, start, clock(), None))
                raise
            add((name, start, clock(), None if value is None else value(result, args)))
            return result

        return wrapper

    def timed_async(self, name: str, fn):
        clock = time.perf_counter
        add = self.spans.append

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                add((name, start, clock(), None))

        return wrapper

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call (calibrated here)."""
        def noop():
            return 1

        wrapped = Tracer().timed("noop", noop)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        return max(0.0, (clock() - start - bare) / calls)


def install(tracer: Tracer) -> dict:
    """Wrap every layer boundary of the serving stack; returns run facts."""
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.backend.csr import CSRAdjacency
    from repro.core import diagnosis, native
    from repro.core.diagnosis import GeneralDiagnoser
    from repro.parallel import pool
    from repro.parallel.pool import WorkerPool
    from repro.service import executor, http, metrics, requests, service, store
    from repro.service.http import HttpFrontend
    from repro.service.requests import DiagnosisRequest, DiagnosisResponse

    clock = time.perf_counter
    timed = tracer.timed

    # --- service.http: the edge (root span), body read and parse, codecs,
    # response write.  Only the HTTP frontend reads streams in the server.
    HttpFrontend._serve_one = tracer.timed_async("http.request", HttpFrontend._serve_one)
    asyncio.StreamReader.readexactly = tracer.timed_async(
        "http.read", asyncio.StreamReader.readexactly
    )
    http._parse_head = timed("http.read", http._parse_head)
    HttpFrontend._respond = tracer.timed_async("http.respond", HttpFrontend._respond)
    http._parse_body_requests = timed("http.parse", http._parse_body_requests)
    DiagnosisRequest.from_dict = classmethod(
        timed("http.decode", DiagnosisRequest.from_dict.__func__)
    )
    DiagnosisResponse.to_wire = timed("http.encode", DiagnosisResponse.to_wire)

    # --- service.service + service.fairqueue: queue wait, batches, sources
    enqueued = contextvars.ContextVar("perfbench_enqueued")
    execute_batch = service.DiagnosisService._execute_batch

    @functools.wraps(execute_batch)
    async def traced_execute_batch(self, topology, batch):
        token = enqueued.set(iter([pending.enqueued_at for pending in batch]))
        try:
            return await execute_batch(self, topology, batch)
        finally:
            enqueued.reset(token)

    service.DiagnosisService._execute_batch = traced_execute_batch

    metrics_init = metrics.ServiceMetrics.__init__

    @functools.wraps(metrics_init)
    def traced_metrics_init(self, *args, **kwargs):
        metrics_init(self, *args, **kwargs)
        record = self.queue_wait.record

        def record_wait(value):
            # Called once per request of the batch, in batch order, with
            # dispatch time minus enqueue time (both on the loop's clock).
            start = next(enqueued.get(iter(())), None)
            if start is not None:
                tracer.add("service.queue_wait", start, start + value)
            record(value)

        self.queue_wait.record = record_wait

    metrics.ServiceMetrics.__init__ = traced_metrics_init
    metrics.ServiceMetrics.record_batch = timed(
        "service.batch", metrics.ServiceMetrics.record_batch,
        value=lambda _result, args: args[1],
    )
    record_response = metrics.ServiceMetrics.record_response

    @functools.wraps(record_response)
    def traced_record_response(self, source, *args, **kwargs):
        now = clock()
        tracer.add("service.response", now, now, SOURCES.get(source))
        return record_response(self, source, *args, **kwargs)

    metrics.ServiceMetrics.record_response = traced_record_response

    # --- service.store
    store.ResultStore.get = timed("store.get", store.ResultStore.get)
    store.ResultStore.put_many = timed("store.put", store.ResultStore.put_many)

    # --- service.executor + service.cache: topology resolve (one per LRU miss)
    resolve = timed("executor.resolve", executor.resolve_topology)
    executor.resolve_topology = service.resolve_topology = resolve
    run_local = timed("executor.batch", executor.run_batch_local)
    executor.run_batch_local = service.run_batch_local = run_local

    # --- backend.array_syndrome: syndrome materialisation (placement + fill)
    for placement, fn in list(executor.PLACEMENTS.items()):
        executor.PLACEMENTS[placement] = timed("syndrome.place", fn)
    from_faults = ArraySyndrome.from_faults.__func__

    @functools.wraps(from_faults)
    def traced_from_faults(cls, *args, **kwargs):
        start = clock()
        syndrome = from_faults(cls, *args, **kwargs)
        syndrome._perfbench_materialised = True
        tracer.add("syndrome.build", start, clock(), syndrome.csr.num_pairs)
        return syndrome

    ArraySyndrome.from_faults = classmethod(traced_from_faults)
    # Wrapping a buffer (explicit syndromes; also the last step of a build).
    ArraySyndrome.__init__ = timed("syndrome.adopt", ArraySyndrome.__init__)

    # --- core.diagnosis: root search; its batch span carries the lookups
    # that materialised syndromes were consulted for (syndrome.useful_share)
    GeneralDiagnoser.__init__ = timed("diagnosis.setup", GeneralDiagnoser.__init__)
    GeneralDiagnoser.find_healthy_root = timed(
        "diagnosis.root_search", GeneralDiagnoser.find_healthy_root,
        value=lambda result, _args: len(result[1]),
    )

    def materialised_lookups(outcomes, args):
        return sum(
            outcome.lookups
            for syndrome, outcome in zip(args[1], outcomes)
            if getattr(syndrome, "_perfbench_materialised", False)
            and not isinstance(outcome, Exception)
        )

    GeneralDiagnoser.diagnose_many = timed(
        "diagnosis.batch", GeneralDiagnoser.diagnose_many, value=materialised_lookups
    )

    # --- core.set_builder + core.native: the stacked kernel; backend.csr
    diagnosis.set_builder_many = timed("kernel.set_builder", diagnosis.set_builder_many)
    CSRAdjacency.boundary_many = timed("csr.boundary", CSRAdjacency.boundary_many)

    # --- service.requests: content digest (request keys and responses)
    digest = timed("digest", requests.syndrome_digest)
    requests.syndrome_digest = executor.syndrome_digest = digest

    # --- parallel.pool + parallel.shm: publish, task round trip, worker spans
    WorkerPool.publish_topology = timed("pool.publish", WorkerPool.publish_topology)
    WorkerPool.publish_buffer = timed("pool.publish", WorkerPool.publish_buffer)
    pool_submit = WorkerPool.submit

    @functools.wraps(pool_submit)
    def traced_pool_submit(self, fn, /, *args, **kwargs):
        start = clock()
        future = pool_submit(self, fn, *args, **kwargs)

        def done(finished):
            end = clock()
            tracer.add("pool.task", start, end)
            if finished.cancelled() or finished.exception() is not None:
                return
            result = finished.result()
            if not (isinstance(result, tuple) and len(result) == 2
                    and isinstance(result[1], dict)):
                return
            stats = result[1]
            worker_spans = stats.pop(WORKER_SPANS_KEY, None)
            if worker_spans is None:
                return
            tracer.spans.extend(tuple(span) for span in worker_spans)
            task = next(s for s in worker_spans if s[0] == "pool.worker_task")
            tracer.add("pool.transfer", start, task[1])
            tracer.add("pool.transfer", task[2], end)
            tracer.add("pool.compiles", end, end, stats.get("compiles", 0))
            tracer.add("pool.pair_builds", end, end, stats.get("pair_builds", 0))

        future.add_done_callback(done)
        return future

    WorkerPool.submit = traced_pool_submit
    # Worker side: map the published topology and syndrome buffer.
    pool.worker_network = timed("pool.attach", pool.worker_network)
    pool.worker_buffer = timed("pool.attach", pool.worker_buffer)
    run_task = executor.run_batch_task

    @functools.wraps(run_task)
    def traced_run_task(*args, **kwargs):
        # Runs in a forked worker: ship this task's spans back with its stats.
        mark = len(tracer.spans)
        start = clock()
        responses, stats = run_task(*args, **kwargs)
        tracer.add("pool.worker_task", start, clock())
        stats[WORKER_SPANS_KEY] = tracer.spans[mark:]
        del tracer.spans[mark:]
        return responses, stats

    # Pickled by reference: both names must resolve to the wrapper.
    executor.run_batch_task = service.run_batch_task = traced_run_task

    return {"native": int(native.native_kernel_active())}


# ---------------------------------------------------------------- analysis
def _merge(intervals):
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _covered(outer, inner) -> float:
    """Length of ``outer ∩ inner`` for two merged interval lists."""
    total, j = 0.0, 0
    for start, end in outer:
        while j < len(inner) and inner[j][1] <= start:
            j += 1
        k = j
        while k < len(inner) and inner[k][0] < end:
            total += min(end, inner[k][1]) - max(start, inner[k][0])
            k += 1
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(dump: dict, window: tuple[float, float], attempted: int) -> dict:
    """The ``per_layer`` metrics of one traced window, by name.

    Spans count when they start inside ``window``; set-up layers (resolve,
    topology-cache misses) count over the server's whole life, because the
    benchmark warms every topology before the window opens.
    """
    lo, hi = window
    every: dict[str, list] = {}
    inside: dict[str, list] = {}
    for name, start, end, value in dump["spans"]:
        every.setdefault(name, []).append((start, end, value))
        if lo <= start <= hi:
            inside.setdefault(name, []).append((start, end, value))

    def spans(name):
        return inside.get(name, [])

    def durations_ms(name):
        return [(end - start) * 1e3 for start, end, _ in spans(name)]

    def values(name):
        return [value for _, _, value in spans(name) if value is not None]

    per_request = max(1, attempted)
    tasks = spans("pool.task")
    slots = sum(values("syndrome.build"))
    responses = values("service.response")

    def union(names):
        return _merge((start, end) for name in names for start, end, _ in spans(name))

    def gap_share(outer, inner):
        total = sum(end - start for start, end in outer)
        return 1.0 - _covered(outer, inner) / total if total else 0.0

    # Two gaps must both stay small: edge time no leaf stage covers, and
    # batch-execution time no stage of the batch covers.
    edge = union(["http.request"])
    edge_time = sum(end - start for start, end in edge)
    unattributed = max(
        gap_share(edge, union(LEAVES)) if edge_time else 1.0,
        gap_share(union(["executor.batch", "pool.worker_task"]), union(BATCH_STAGES)),
    )
    recorded = sum(len(group) for group in inside.values())

    return {
        "syndrome.build_ms": (sum(durations_ms("syndrome.build"))
                              + sum(durations_ms("syndrome.place"))) / per_request,
        "syndrome.useful_share": sum(values("diagnosis.batch")) / slots if slots else 0.0,
        "diagnosis.root_search_ms": _mean(durations_ms("diagnosis.root_search")),
        "diagnosis.probes": _mean(values("diagnosis.root_search")),
        "kernel.set_builder_ms": _mean(durations_ms("kernel.set_builder")),
        "kernel.native": float(dump["native"]),
        "csr.boundary_ms": _mean(durations_ms("csr.boundary")),
        "digest.ms": sum(durations_ms("digest")) / per_request,
        "http.decode_ms": _mean(durations_ms("http.decode")),
        "http.encode_ms": _mean(durations_ms("http.encode")),
        "pool.publish_ms": sum(durations_ms("pool.publish")) / len(tasks) if tasks else 0.0,
        "pool.task_ms": _mean(durations_ms("pool.task")),
        "pool.worker_compiles": float(sum(values("pool.compiles"))),
        "pool.worker_pair_builds": float(sum(values("pool.pair_builds"))),
        "store.get_ms": _mean(durations_ms("store.get")),
        "store.put_ms": _mean(durations_ms("store.put")),
        "service.queue_wait_ms": _mean(durations_ms("service.queue_wait")),
        "service.batch_width": _mean(values("service.batch")),
        "service.coalesced_share": (responses.count(SOURCES["coalesced"]) / len(responses)
                                    if responses else 0.0),
        "executor.resolve_ms": _mean(
            (end - start) * 1e3 for start, end, _ in every.get("executor.resolve", [])
        ),
        "cache.topology_misses": float(len(every.get("executor.resolve", []))),
        "trace.unattributed_share": unattributed,
        "trace.overhead_share": (recorded * dump["span_cost_s"] / edge_time
                                 if edge_time else 0.0),
    }
