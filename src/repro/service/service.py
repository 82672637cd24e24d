"""The asyncio diagnosis service: coalesce, batch, cache, remember.

:class:`DiagnosisService` accepts a stream of
:class:`~repro.service.requests.DiagnosisRequest` s and turns the per-request
pipeline into amortised batched work:

1. **Store check** — a request whose canonical key is already filed in the
   :class:`~repro.service.store.ResultStore` is answered from disk without
   touching a topology.
2. **In-flight coalescing** — identical concurrent requests share one
   computation: the first registers a future, the rest await it.
3. **Batch coalescing** — a topology's batch forms when an execution slot
   frees, from what queued meanwhile (up to ``max_batch_size``); it
   resolves its compiled topology once (through a bounded LRU) and
   executes as a single unit — as one
   :class:`~repro.parallel.pool.WorkerPool` task mapping the topology out
   of shared memory, or in process.  The one in-process slot runs batches
   one after another, so its *turn* takes every queued topology's batch
   and runs them all in one executor hop, filing every answer in one store
   transaction; pool slots run in parallel and take one batch per turn.

Multi-tenancy sits across all three stages: every request carries a
``tenant``, each topology's queue is a per-tenant deficit-round-robin
structure (:class:`~repro.service.fairqueue.TenantQueues`) so one hot tenant
cannot starve cold ones out of a batch, ``max_queue_per_tenant`` bounds each
tenant's queued share (on top of the global ``max_queue_depth``), and every
counter the service keeps is also accounted per tenant.  Store hits and
in-flight coalesced joins consume **no** queue slot from any tenant — dedup
crosses tenant boundaries by design (the work is identical), only queueing
is partitioned.

Batches report their executing process's compile-count delta; on the
serving path it stays at zero, so "zero per-request recompilation" is
measured, not claimed.  Responses are bit-identical to direct
:meth:`~repro.core.diagnosis.GeneralDiagnoser.diagnose` calls (pinned by
``tests/differential``): the service reorders and amortises work, never
changes it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Iterable, Sequence

from .cache import LRUCache
from .executor import check_topology_size, resolve_topology, run_batch_local, run_batch_task
from .fairqueue import TenantQueues
from .metrics import ServiceMetrics
from .requests import DiagnosisRequest, DiagnosisResponse
from .store import ResultStore

__all__ = ["DiagnosisService", "RejectedError"]


class RejectedError(RuntimeError):
    """A request shed by admission control.

    The in-process face of HTTP 429: the service answers immediately instead
    of queueing without bound, and the caller decides whether to back off and
    retry.  ``scope`` records which bound shed the request — ``"global"``
    (queue at ``max_queue_depth``) or ``"tenant"`` (the request's tenant at
    its ``max_queue_per_tenant`` quota).  Store hits and in-flight coalesced
    joins are never rejected — they consume no queue slot.
    """

    def __init__(
        self,
        depth: int,
        limit: int,
        *,
        scope: str = "global",
        tenant: str | None = None,
    ) -> None:
        if scope == "tenant":
            message = (f"tenant {tenant!r} queue full: {depth} requests "
                       f"pending (max_queue_per_tenant={limit})")
        else:
            message = (f"queue full: {depth} requests pending "
                       f"(max_queue_depth={limit})")
        super().__init__(message)
        self.depth = depth
        self.limit = limit
        self.scope = scope
        self.tenant = tenant


@dataclass
class _Pending:
    """One queued request and the machinery to answer it."""

    request: DiagnosisRequest
    key: str
    future: asyncio.Future
    enqueued_at: float


def _run_groups(groups):
    """One executor hop of an in-process turn: each group's batch in turn.

    Returns ``(start, outcome)`` per group: when its run began, on the
    event loop's clock (``time.monotonic``), and its ``(responses, stats)``
    or the exception that fails it alone.
    """
    ran = []
    for network, csr, requests in groups:
        start = time.monotonic()
        try:
            ran.append((start, run_batch_local(network, csr, requests)))
        except Exception as exc:
            ran.append((start, exc))
    return ran


class DiagnosisService:
    """Async front end serving diagnosis requests in coalesced batches.

    Parameters
    ----------
    pool:
        Optional persistent :class:`~repro.parallel.pool.WorkerPool`; batches
        then execute as single pool tasks over shared-memory topologies,
        up to the pool's ``max_workers`` at once, one batch per turn.
        ``None`` executes in process on the default thread executor (so the
        event loop keeps accepting requests mid-turn), one turn at a time;
        a turn there takes every queued topology's batch, runs them in one
        executor call and files their answers in one store transaction.
    remote:
        Optional :class:`~repro.fabric.coordinator.FabricCoordinator` (or
        anything with its ``has_workers()``/``execute()`` face).  The
        dispatch policy then prefers the fabric whenever it has live
        workers (its batches wait for no local slot), falling back to the
        pool / in-process path when it does not — or when it raises
        :class:`~repro.fabric.protocol.FabricUnavailableError` mid-batch
        (all workers died, retry budget exhausted), so fabric trouble
        degrades throughput, never loses a request.  Like the pool, the
        coordinator stays caller-owned: :meth:`close` does not close it.
    max_batch_size:
        Most requests one batch takes; the overflow waits for the next free
        slot.
    topology_cache_capacity:
        Bound of the compiled-topology LRU.  ``0`` disables topology reuse
        entirely (every batch re-resolves).
    store:
        Optional :class:`~repro.service.store.ResultStore` for persistent
        request dedup.
    max_queue_depth:
        Admission control: a request that would push the number of queued
        (not yet dispatched) requests past this bound is refused with
        :class:`RejectedError` instead of enqueued — the service degrades
        under overload by shedding, not by growing an unbounded queue.
        ``None`` (default) admits everything.  Requests answered without a
        queue slot — store hits and in-flight coalesced duplicates — are
        never shed.
    max_queue_per_tenant:
        Per-tenant admission quota: a request whose tenant already has this
        many queued (not yet dispatched) requests is shed with
        :class:`RejectedError` (``scope="tenant"``), whatever the global
        queue looks like — one hot tenant exhausts its own quota, never the
        whole edge.  The global bound still applies on top.  Like the global
        bound, store hits and coalesced joins never consume a tenant's
        quota.
    tenant_weights:
        ``tenant -> positive integer weight`` for the per-topology
        deficit-round-robin scheduler; per DRR rotation a tenant may fill
        ``weight`` slots of a batch (unnamed tenants weigh 1).  Weights
        shape *ordering* under contention, quotas shape *admission*.
    """

    def __init__(
        self,
        *,
        pool=None,
        remote=None,
        max_batch_size: int = 64,
        topology_cache_capacity: int = 16,
        store: ResultStore | None = None,
        metrics: ServiceMetrics | None = None,
        max_queue_depth: int | None = None,
        max_queue_per_tenant: int | None = None,
        tenant_weights: dict[str, int] | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 (or None)")
        if max_queue_per_tenant is not None and max_queue_per_tenant < 1:
            raise ValueError(
                "max_queue_per_tenant must be at least 1 (or None)"
            )
        self.pool = pool
        self.remote = remote
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.max_queue_per_tenant = max_queue_per_tenant
        # Validated eagerly (TenantQueues rejects bad weights) so a typo'd
        # weight map fails at construction, not at the first enqueue.
        self.tenant_weights = dict(tenant_weights or {})
        TenantQueues(weights=self.tenant_weights)
        self.store = store
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # A coordinator built without explicit metrics adopts the service's,
        # so per-worker counters land in the same stats()/Prometheus snapshot.
        if remote is not None and getattr(remote, "owns_metrics", False):
            remote.metrics = self.metrics
            remote.owns_metrics = False
        self._topologies: LRUCache[str, tuple] = LRUCache(
            topology_cache_capacity, on_evict=self._on_topology_evicted
        )
        self._topology_locks: dict[str, asyncio.Lock] = {}
        #: cache-evicted (network, csr) entries whose shared-memory segment
        #: cannot be unlinked yet — a batch submitted before the eviction may
        #: still be queued with the handle; released once nothing is in
        #: flight on that exact compiled object (see _flush_retired)
        self._retired: list[tuple] = []
        self._inflight_csr: dict[int, int] = {}
        #: idle syndrome staging segments (BufferHandles); a pooled batch
        #: with explicit syndromes borrows one, so at most one per slot exist
        self._staging: list = []
        #: Execution slots, one per pool worker or a single one in-process
        #: (where it also keeps a resolve on one executor thread from
        #: bleeding into the process-global compile delta a batch measures
        #: on another); a turn holds one from before it forms until answered.
        #: A pooled turn is one batch; the in-process turn is every queued
        #: topology's batch (see _take_turn).
        self._slots = asyncio.Semaphore(1 if pool is None else pool.max_workers)
        self._pending: dict[str, TenantQueues] = {}
        self._pending_total = 0
        #: queued-but-undispatched requests per tenant, across topologies —
        #: the number the per-tenant quota is enforced against
        self._tenant_pending: dict[str, int] = {}
        self._dispatchers: dict[str, asyncio.Task] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._closed = False

    # -------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "DiagnosisService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def drain(self) -> None:
        """Wait until every queued request has been answered."""
        while self._dispatchers:
            await asyncio.gather(
                *list(self._dispatchers.values()), return_exceptions=True
            )

    async def close(self) -> None:
        """Refuse new requests, drain the queues, release published segments.

        The pool itself stays caller-owned (it may be serving other users);
        only the topology and staging segments *this* service published are
        unlinked.
        """
        self._closed = True
        await self.drain()
        if self.pool is not None:
            for handle in self._staging:
                self.pool.release(handle)
            self._staging.clear()
            self._flush_retired()
            for key in list(self._topologies):
                entry = self._topologies.get(key)
                if entry is not None:
                    self.pool.release_topology(entry[1])
            self._topologies.clear()

    # --------------------------------------------------- segment bookkeeping
    def _on_topology_evicted(self, topology: str, entry: tuple) -> None:
        """LRU eviction hook: queue the entry's shm segment for release.

        The per-topology resolution lock goes with it (unless a resolution
        is mid-flight on it right now, in which case the re-resolution path
        recreates the cache entry anyway) — otherwise a service touring many
        parametrisations would accumulate one idle lock per key forever.
        """
        if self.pool is not None:
            self._retired.append(entry)
        lock = self._topology_locks.get(topology)
        if lock is not None and not lock.locked():
            del self._topology_locks[topology]

    def _prune_locks(self) -> None:
        """Drop idle resolution locks for topologies no longer cached/queued.

        Covers what the eviction hook cannot: a capacity-0 cache evicts a
        topology while its own resolution lock is still held.  Runs as a
        topology's dispatcher retires, once its queue is gone.
        """
        for key in list(self._topology_locks):
            if (not self._topology_locks[key].locked()
                    and key not in self._topologies
                    and key not in self._pending):
                del self._topology_locks[key]

    def _flush_retired(self) -> None:
        """Unlink retired segments with no batch in flight on their arrays.

        Keeps long-running pooled services bounded: without this, every
        eviction + re-resolution would pin one more segment in the pool
        until shutdown.
        """
        keep = []
        for entry in self._retired:
            if self._inflight_csr.get(id(entry[1]), 0):
                keep.append(entry)
            else:
                self.pool.release_topology(entry[1])
        self._retired = keep

    # ----------------------------------------------------------------- submit
    async def submit(self, request: DiagnosisRequest) -> DiagnosisResponse:
        """Serve one request (store -> in-flight -> batched computation)."""
        if self._closed:
            raise RuntimeError("the service is closed")
        # The request checked its fields when built; the node cap is ours.
        check_topology_size(request.family, request.network_kwargs)
        tenant = request.tenant
        loop = asyncio.get_running_loop()
        enqueued_at = loop.time()
        # Admission keys the request.  An explicit buffer's digest was
        # computed once, by its constructor, and the store, the executor
        # and the pool task reuse it.
        key = request.key

        if self.store is not None:
            stored = self.store.get(request)
            if stored is not None:
                self.metrics.record_enqueue(self._pending_total, tenant=tenant)
                latency = loop.time() - enqueued_at
                response = replace(stored, elapsed_seconds=latency)
                self.metrics.record_response(
                    "store", latency, ok=response.ok, tenant=tenant
                )
                return response

        if key in self._inflight:
            self.metrics.record_enqueue(self._pending_total, tenant=tenant)
            response = await asyncio.shield(self._inflight[key])
            latency = loop.time() - enqueued_at
            response = replace(
                response, source="coalesced", elapsed_seconds=latency
            )
            self.metrics.record_response(
                "coalesced", latency, ok=response.ok, tenant=tenant
            )
            return response

        # The request needs a queue slot from here on: admission control
        # sheds it *now* if either bound is already met, so overload turns
        # into immediate, retryable refusals instead of latency.  Both
        # checks run before any state changes, and in a fixed order (global,
        # then tenant), so the shed split of a burst is deterministic in
        # submission order — the property the loadgen pins.
        if (self.max_queue_depth is not None
                and self._pending_total >= self.max_queue_depth):
            self.metrics.record_rejection(self._pending_total, tenant=tenant)
            raise RejectedError(self._pending_total, self.max_queue_depth)
        tenant_depth = self._tenant_pending.get(tenant, 0)
        if (self.max_queue_per_tenant is not None
                and tenant_depth >= self.max_queue_per_tenant):
            self.metrics.record_rejection(self._pending_total, tenant=tenant)
            raise RejectedError(
                tenant_depth, self.max_queue_per_tenant,
                scope="tenant", tenant=tenant,
            )
        self.metrics.record_enqueue(self._pending_total, tenant=tenant)

        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._enqueue(_Pending(
            request=request, key=key, future=future, enqueued_at=enqueued_at
        ))
        response = await asyncio.shield(future)
        latency = loop.time() - enqueued_at
        response = replace(response, elapsed_seconds=latency)
        self.metrics.record_response(
            "computed", latency, ok=response.ok, tenant=tenant
        )
        return response

    async def submit_many(
        self, requests: Iterable[DiagnosisRequest]
    ) -> list[DiagnosisResponse]:
        """Submit concurrently; responses return in request order."""
        return list(await asyncio.gather(*(self.submit(r) for r in requests)))

    # ------------------------------------------------------------- scheduling
    def _enqueue(self, pending: _Pending) -> None:
        tenant = pending.request.tenant
        topology = pending.request.topology_key
        queues = self._pending.get(topology)
        if queues is None:
            queues = self._pending[topology] = TenantQueues(
                weights=self.tenant_weights
            )
        queues.push(tenant, pending)
        self._pending_total += 1
        self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1
        if topology not in self._dispatchers:
            self._dispatchers[topology] = asyncio.create_task(
                self._dispatch_loop(topology)
            )

    def _take_batch(self, topology: str) -> list[_Pending]:
        """Drain up to one batch from a topology's queues (DRR order)."""
        queues = self._pending.get(topology)
        if queues is None:
            return []
        batch = queues.take(self.max_batch_size)
        self._pending_total -= len(batch)
        for pending in batch:
            tenant = pending.request.tenant
            remaining = self._tenant_pending[tenant] - 1
            if remaining:
                self._tenant_pending[tenant] = remaining
            else:
                del self._tenant_pending[tenant]
        return batch

    async def _dispatch_loop(self, topology: str) -> None:
        """Per-topology dispatcher: one batch at a time until the queue empties.

        The task lives as long as its topology has queued requests (so
        :meth:`drain` need only await the registered dispatchers).
        """
        try:
            while self._pending.get(topology):
                await self._dispatch(topology)
        finally:
            self._pending.pop(topology, None)
            self._dispatchers.pop(topology, None)
            self._prune_locks()

    async def _dispatch(self, topology: str) -> None:
        """Run one turn, taken from the queues once an executor can start it.

        A fabric with live workers takes ``topology``'s batch at once; any
        other turn, or a batch the fabric hands back, first waits for a free
        slot.
        """
        batch = None
        if self.remote is not None and self.remote.has_workers():
            await asyncio.sleep(0)  # same-tick submissions join, as below
            batch = self._take_batch(topology)
            if not batch or await self._execute_remote(topology, batch):
                return
        # repro: allow[RPR009] the slot stands for the executor itself: a
        # turn holds it for exactly as long as it occupies that executor,
        # and the requests queued behind it form the next turn
        async with self._slots:
            if batch is None:
                # One tick first, so submissions made in the same tick (a
                # batched /diagnose body, submit_many) share this turn.
                await asyncio.sleep(0)
                batch = self._take_turn(topology)
            if batch:
                await self._execute_batch(topology, batch)

    def _take_turn(self, topology: str) -> list[_Pending]:
        """The requests of one slot turn, ``topology``'s batch first.

        Pool slots and fabric workers run batches in parallel, so their
        turn is ``topology``'s batch alone.  The one in-process slot runs
        batches one after another, so its turn also takes every other
        queued topology's batch, and they share one executor hop and one
        store commit.
        """
        batch = self._take_batch(topology)
        if self.pool is None and not (self.remote is not None
                                      and self.remote.has_workers()):
            for other in self._pending:
                if other != topology:
                    batch += self._take_batch(other)
        return batch

    # -------------------------------------------------------------- execution
    async def _resolved_topology(self, topology: str, request: DiagnosisRequest):
        """The ``(network, csr)`` pair for a batch, via the bounded LRU.

        Resolution (construct + compile) runs on the default executor so the
        event loop keeps serving; a per-topology lock stops concurrent
        batches from resolving the same topology twice.
        """
        lock = self._topology_locks.setdefault(topology, asyncio.Lock())
        # repro: allow[RPR009] single-flight by design: the awaited work IS
        # the resolve this lock deduplicates; concurrent batches for the same
        # topology must wait for it rather than compile twice
        async with lock:
            entry = self._topologies.get(topology)
            if entry is None:
                loop = asyncio.get_running_loop()
                entry = await loop.run_in_executor(
                    None, resolve_topology, request.family, request.network_kwargs
                )
                self._topologies.put(topology, entry)
        return entry

    async def _execute_remote(self, topology: str, batch: list[_Pending]) -> bool:
        """Run ``batch`` on the fabric; False, answering nothing, to fall back.

        The coordinator owns retries, requeues and dedup; a lease it still
        cannot complete runs locally instead of failing its requests.
        """
        from ..fabric.protocol import FabricUnavailableError

        dispatch_time = asyncio.get_running_loop().time()
        try:
            outcome = await self.remote.execute(
                topology, [pending.request for pending in batch]
            )
        except FabricUnavailableError:
            # Leave evidence: an operator watching a fleet that quietly
            # degrades to local execution needs a counter, not silence.
            self.metrics.fabric_fallbacks += 1
            return False
        except Exception as exc:
            outcome = exc
        self.metrics.turns += 1
        self._record_waits(batch, dispatch_time)
        self._answer([(batch, outcome)])
        return True

    async def _execute_batch(self, topology: str, batch: list[_Pending]) -> None:
        """Run one slot turn on the pool, or in-process, and answer it.

        ``batch`` holds one topology group on the pool (``topology``'s) and
        in process every group the turn took, each a contiguous run of one
        topology's requests.  Every group resolves through the LRU; then
        the pool runs its one group as one task, or one executor hop runs
        each group's :func:`run_batch_local` in turn.  A group that fails
        (its topology does not resolve, its run raises) fails only its own
        requests.  Each request's queue wait, from enqueue until its group
        starts to run, is recorded in batch order.
        """
        loop = asyncio.get_running_loop()
        turn = []  # (group, its (network, csr) or the exception failing it)
        for key, members in groupby(batch, key=lambda p: p.request.topology_key):
            group = list(members)
            try:
                entry = await self._resolved_topology(key, group[0].request)
            except Exception as exc:
                entry = exc
            turn.append((group, entry))
        runs = [(group, entry) for group, entry in turn
                if not isinstance(entry, Exception)]
        dispatch_time = loop.time()
        try:
            if not runs:
                started = []
            elif self.pool is not None:
                ((group, (_, csr)),) = runs
                started = [(dispatch_time, await self._run_pooled(csr, group))]
            else:
                started = await loop.run_in_executor(None, _run_groups, [
                    (network, csr, [pending.request for pending in group])
                    for group, (network, csr) in runs
                ])
        except Exception as exc:
            started = [(dispatch_time, exc)] * len(runs)
        started = iter(started)
        self.metrics.turns += 1
        outcomes = []
        for group, entry in turn:
            if isinstance(entry, Exception):
                start, outcome = dispatch_time, entry
            else:
                start, outcome = next(started)
            self._record_waits(group, start)
            outcomes.append((group, outcome))
        self._answer(outcomes)

    async def _run_pooled(self, csr, batch: list[_Pending]):
        """One pool task over the published topology: ``(responses, stats)``."""
        requests = [pending.request for pending in batch]
        handle = self.pool.publish_topology(csr)
        wire_requests, syndrome_handle, spans = self._stage(requests)
        self._inflight_csr[id(csr)] = self._inflight_csr.get(id(csr), 0) + 1
        task = None
        try:
            task = self.pool.submit(
                run_batch_task, handle, requests[0].family,
                requests[0].params, wire_requests, syndrome_handle, spans,
            )
            return await asyncio.wrap_future(task)
        finally:
            remaining = self._inflight_csr[id(csr)] - 1
            if remaining:
                self._inflight_csr[id(csr)] = remaining
            else:
                del self._inflight_csr[id(csr)]
            # A cancelled wait leaves the task reading the segment: it must
            # not be refilled (the pool unlinks it at shutdown instead).
            if syndrome_handle is not None and (task is None or task.done()):
                self._staging.append(syndrome_handle)
            self._flush_retired()

    def _stage(self, requests: list[DiagnosisRequest]):
        """Copy a batch's explicit syndromes into an idle staging segment.

        Explicit syndromes ship through shared memory, not pickle: their
        buffers are laid end to end in one segment and the task carries
        ``(position, offset, size, digest)`` spans instead; the wire
        requests are stripped of their bytes so the task payload stays
        small, and each request's digest rides along so the worker never
        rescans a buffer.  The segment is borrowed from the idle list,
        refilled in place (a worker's attach cache keeps its mapping across
        batches) and grown, under a fresh name, when the batch needs more
        room than it has.  The caller returns it to the idle list once the
        batch's task has answered.
        """
        wire_requests = list(requests)
        spans: list[tuple[int, int, int, str]] = []
        offset = 0
        for pos, request in enumerate(requests):
            if request.is_explicit:
                size = len(request.syndrome_bytes)
                spans.append((pos, offset, size, request.digest))
                offset += size
                wire_requests[pos] = replace(request, syndrome_bytes=None)
        if not spans:
            return wire_requests, None, spans
        handle = self._staging.pop() if self._staging else None
        if handle is None or handle.size < offset:
            # Idle means no task holds it: the old segment can go at once.
            capacity = offset
            if handle is not None:
                self.pool.release(handle)
                capacity = max(offset, 2 * handle.size)
            handle = self.pool.publish_buffer(bytes(capacity))
        staging = self.pool.buffer(handle)
        for pos, start, size, _ in spans:
            staging[start:start + size] = requests[pos].syndrome_bytes
        return wire_requests, handle, spans

    def _fail_batch(self, batch: list[_Pending], exc: Exception) -> None:
        for pending in batch:
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_exception(exc)

    def _record_waits(self, batch: list[_Pending], start: float) -> None:
        for pending in batch:
            self.metrics.queue_wait.record(start - pending.enqueued_at)

    def _answer(self, outcomes: list[tuple[list[_Pending], object]]) -> None:
        """Answer a turn's ``(group, outcome)`` pairs.

        An outcome is the group's ``(responses, stats)``, or the exception
        that fails the group alone.  Each group is still one batch to the
        metrics and in its responses' ``batch_size``; the store files every
        group's rows in one transaction, so a turn costs one commit stall,
        not one per group or per request.
        """
        filed = []
        for group, outcome in outcomes:
            if isinstance(outcome, Exception):
                self._fail_batch(group, outcome)
                continue
            responses, stats = outcome
            self.metrics.record_batch(
                len(group),
                compiles=stats["compiles"],
                kernel_width=stats.get("kernel_width"),
            )
            filed += zip(group, (
                replace(response, batch_size=len(group))
                for response in responses
            ))
        if self.store is not None and filed:
            self.store.put_many(
                [(pending.request, response) for pending, response in filed]
            )
        for pending, response in filed:
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_result(response)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """The ``stats`` endpoint: telemetry + cache + store in one dict."""
        body = self.metrics.snapshot()
        body["pending"] = self._pending_total
        body["pending_by_tenant"] = {
            tenant: depth
            for tenant, depth in sorted(self._tenant_pending.items())
        }
        body["max_queue_depth"] = self.max_queue_depth
        body["max_queue_per_tenant"] = self.max_queue_per_tenant
        body["tenant_weights"] = {
            tenant: weight
            for tenant, weight in sorted(self.tenant_weights.items())
        }
        body["pooled"] = self.pool is not None
        body["topology_cache"] = self._topologies.stats().as_dict()
        body["store"] = self.store.stats() if self.store is not None else None
        if self.remote is not None:
            body["fabric"] = self.remote.stats()
        return body

    def prometheus_text(self, *, http_stats: dict | None = None) -> str:
        """The ``/metrics`` exposition body (see :mod:`.prometheus`).

        ``http_stats`` is the HTTP frontend's counter dict when one fronts
        this service; transportless callers omit it.
        """
        from .prometheus import render_metrics

        return render_metrics(
            self.metrics,
            pending=self._pending_total,
            pending_by_tenant=dict(self._tenant_pending),
            cache_stats=self._topologies.stats().as_dict(),
            store_stats=self.store.stats() if self.store is not None else None,
            http_stats=http_stats,
            fabric_stats=(
                self.remote.stats() if self.remote is not None else None
            ),
        )

    async def serve_sequence(
        self, requests: Sequence[DiagnosisRequest]
    ) -> list[DiagnosisResponse]:
        """Closed-loop serving of an ordered stream (one at a time).

        The loadgen's per-client loop; kept here so tests can drive a
        single-client stream without building a loadgen spec.
        """
        return [await self.submit(request) for request in requests]
