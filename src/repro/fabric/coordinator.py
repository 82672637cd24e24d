"""The fabric coordinator: accept workers, lease batches, survive their death.

:class:`FabricCoordinator` is the remote half of the serving layer's
dispatch policy.  It listens on a framed-socket port
(:mod:`~repro.fabric.protocol`); workers connect, say ``hello`` and then
heartbeat, and the coordinator hands each coalesced batch to one live
worker as a **lease**:

* a lease keeps its id — and its caller-visible future — across every
  retry, so a late or duplicated ``result`` frame from an earlier attempt
  still answers it, and the first completion wins (later ones are counted
  and dropped: duplicate-completion dedup);
* an unanswered lease times out and is retried with exponential backoff,
  against whichever worker round-robin picks next (the store's content
  addressing makes double execution idempotent);
* a dying worker (connection EOF, or heartbeats silent past the registry
  deadline) is evicted and its in-flight leases are requeued immediately —
  no caller waits a full lease timeout for a death the socket already
  announced.

Per-worker accounting (dispatched / completed / retried / requeued /
evictions) lands in the shared :class:`~repro.service.metrics.ServiceMetrics`
so ``/stats``, ``/metrics`` and the dashboard see the fabric with no extra
plumbing.  When nothing can serve a lease (no live workers, retry budget
exhausted) :class:`~repro.fabric.protocol.FabricUnavailableError` surfaces,
and :class:`~repro.service.service.DiagnosisService` falls back to local
execution — the fabric can only ever lose throughput, never requests.
"""

from __future__ import annotations

import asyncio
import itertools

from ..service.metrics import ServiceMetrics
from ..service.requests import DiagnosisRequest, DiagnosisResponse, decode_result, encode_lease
from .protocol import PROTOCOL_VERSION, FabricUnavailableError, FrameChannel, FrameError
from .registry import WorkerRegistry

__all__ = ["FabricCoordinator", "FabricUnavailableError"]


class _Lease:
    """One batch's dispatch state (id and future stable across retries)."""

    __slots__ = ("lease_id", "requests", "future", "requeue", "attempts")

    def __init__(self, lease_id: int, requests, future) -> None:
        self.lease_id = lease_id
        self.requests = requests
        self.future = future
        self.requeue = asyncio.Event()
        self.attempts = 0


class _WorkerLink:
    """One live worker connection and the lease ids in flight on it."""

    __slots__ = ("worker_id", "generation", "channel", "inflight")

    def __init__(self, worker_id: str, generation: int, channel: FrameChannel) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.channel = channel
        self.inflight: set[int] = set()


class FabricCoordinator:
    """Accepts fabric workers and executes batches through them.

    Parameters
    ----------
    metrics:
        The :class:`ServiceMetrics` to account per-worker counters into —
        pass the serving service's instance so ``/stats`` and ``/metrics``
        cover the fabric.  A private one is created if omitted.
    heartbeat_interval / max_missed:
        Liveness policy handed to the :class:`WorkerRegistry` (workers are
        told the interval in their ``welcome``).
    lease_timeout:
        Seconds an unanswered lease waits before being retried; also the
        bound on waiting for *any* live worker to appear.
    max_attempts:
        Dispatch attempts per lease before giving up with
        :class:`FabricUnavailableError` (worker-death requeues count as
        attempts too — a lease cannot ping-pong between dying workers
        forever).
    backoff_base / backoff_cap:
        Exponential retry backoff after a lease timeout, in seconds.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: ServiceMetrics | None = None,
        heartbeat_interval: float = 1.0,
        max_missed: int = 3,
        lease_timeout: float = 10.0,
        max_attempts: int = 8,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: True while the coordinator runs on a private ServiceMetrics; a
        #: DiagnosisService given this coordinator as ``remote`` replaces it
        #: with its own so all counters share one snapshot.
        self.owns_metrics = metrics is None
        self.registry = WorkerRegistry(
            heartbeat_interval=heartbeat_interval, max_missed=max_missed
        )
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._links: dict[str, _WorkerLink] = {}
        self._leases: dict[int, _Lease] = {}
        self._lease_ids = itertools.count(1)
        self._workers_changed = asyncio.Event()
        self._round_robin = 0
        self.duplicate_completions = 0
        self.protocol_errors = 0
        #: worker id -> most recent terminal error message it reported;
        #: surfaced via :meth:`stats` so a failing environment names itself
        self.last_worker_errors: dict[str, str] = {}
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    async def __aenter__(self) -> "FabricCoordinator":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.create_task(self._sweep_loop())

    async def close(self) -> None:
        self._closed = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass  # the cancellation above is the expected outcome
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in list(self._links.values()):
            await link.channel.close()
        self._links.clear()
        for lease in list(self._leases.values()):
            if not lease.future.done():
                lease.future.set_exception(
                    FabricUnavailableError("coordinator closed")
                )
        self._leases.clear()
        self._workers_changed.set()  # wake any worker-waiters to see _closed

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ----------------------------------------------------------- connections
    async def _handle_connection(self, reader, writer) -> None:
        channel = FrameChannel(reader, writer)
        loop = asyncio.get_running_loop()
        try:
            hello = await asyncio.wait_for(channel.recv(), self.lease_timeout)
        except (TimeoutError, FrameError):
            await channel.close()
            return
        if (hello is None or hello.get("kind") != "hello"
                or not isinstance(hello.get("worker"), str)
                or not hello["worker"]):
            if hello is not None:
                self.protocol_errors += 1
            await channel.close()
            return
        worker_id = hello["worker"]
        info = self.registry.register(worker_id, loop.time())
        stale = self._links.get(worker_id)
        link = _WorkerLink(worker_id, info.generation, channel)
        self._links[worker_id] = link
        if stale is not None:
            # Same id reconnected: the old socket is stale, not the worker.
            await stale.channel.close()
            self._requeue_inflight(stale)
        try:
            await channel.send({
                "kind": "welcome",
                "protocol": PROTOCOL_VERSION,
                "worker": worker_id,
                "generation": info.generation,
                "heartbeat_interval": self.registry.heartbeat_interval,
                "lease_timeout": self.lease_timeout,
            })
        except (ConnectionError, OSError):
            await self._drop_link(link)
            return
        self._workers_changed.set()
        try:
            while True:
                try:
                    frame = await channel.recv()
                except FrameError:
                    self.protocol_errors += 1
                    break
                if frame is None:
                    break
                kind = frame.get("kind")
                if kind == "heartbeat":
                    self.registry.heartbeat(worker_id, loop.time())
                elif kind == "result":
                    self._handle_result(link, frame)
                elif kind == "error":
                    self._handle_worker_error(link, frame)
                else:
                    self.protocol_errors += 1
        finally:
            await self._drop_link(link)

    async def _drop_link(self, link: _WorkerLink) -> None:
        """Retire one connection: evict its worker (if this link is still
        current) and requeue whatever it was executing."""
        await link.channel.close()
        if self._links.get(link.worker_id) is link:
            del self._links[link.worker_id]
            if self.registry.mark_dead(link.worker_id):
                self.metrics.worker(link.worker_id)["evictions"] += 1
            self._workers_changed.set()
        self._requeue_inflight(link)

    def _requeue_inflight(self, link: _WorkerLink) -> None:
        for lease_id in list(link.inflight):
            lease = self._leases.get(lease_id)
            if lease is not None and not lease.future.done():
                self.metrics.worker(link.worker_id)["requeued"] += 1
                lease.requeue.set()
        link.inflight.clear()

    async def _sweep_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.registry.heartbeat_interval)
            for worker_id in self.registry.sweep(loop.time()):
                self.metrics.worker(worker_id)["evictions"] += 1
                link = self._links.pop(worker_id, None)
                if link is not None:
                    await link.channel.close()
                    self._requeue_inflight(link)
            self._workers_changed.set()

    # ---------------------------------------------------------- result plane
    def _handle_result(self, link: _WorkerLink, frame: dict) -> None:
        try:
            lease_id, responses, stats = decode_result(frame)
        except ValueError:
            self.protocol_errors += 1
            return
        link.inflight.discard(lease_id)
        lease = self._leases.get(lease_id)
        if lease is None or lease.future.done():
            # A duplicated frame, or a slow attempt answering a lease a
            # faster retry already resolved: first completion won.
            self.duplicate_completions += 1
            return
        del self._leases[lease_id]
        self.metrics.worker(link.worker_id)["completed"] += 1
        lease.future.set_result((responses, stats))

    def _handle_worker_error(self, link: _WorkerLink, frame: dict) -> None:
        """A worker reported a terminal execution failure for a lease.

        Nothing malformed is ever queued: a ``DiagnosisRequest`` checks
        its own fields when it is built, and ``DiagnosisService.submit``
        refuses an oversized topology at admission.  So this is an
        environment problem (e.g. the worker cannot build the topology) —
        retrying the identical work elsewhere may still succeed, so treat
        it exactly like a death of that one lease: requeue it.
        """
        lease_id = frame.get("lease")
        link.inflight.discard(lease_id)
        # Record the report even when the lease is already resolved: the
        # message is the only evidence of *why* a worker's environment is
        # failing, and dropping it made these faults undiagnosable.
        self.metrics.worker(link.worker_id)["errors"] += 1
        message = frame.get("message")
        if isinstance(message, str) and message:
            self.last_worker_errors[link.worker_id] = message
        lease = self._leases.get(lease_id)
        if lease is not None and not lease.future.done():
            self.metrics.worker(link.worker_id)["requeued"] += 1
            lease.requeue.set()

    # -------------------------------------------------------------- dispatch
    def live_workers(self) -> list[str]:
        """Workers that are registry-alive *and* currently connected."""
        return [w for w in self.registry.live() if w in self._links]

    def has_workers(self) -> bool:
        return bool(self.live_workers())

    async def _acquire_link(self) -> _WorkerLink:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.lease_timeout
        while True:
            if self._closed:
                raise FabricUnavailableError("coordinator closed")
            live = self.live_workers()
            if live:
                worker_id = live[self._round_robin % len(live)]
                self._round_robin += 1
                return self._links[worker_id]
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise FabricUnavailableError(
                    f"no live workers within {self.lease_timeout:.1f}s"
                )
            self._workers_changed.clear()
            try:
                await asyncio.wait_for(self._workers_changed.wait(), remaining)
            except TimeoutError:
                raise FabricUnavailableError(
                    f"no live workers within {self.lease_timeout:.1f}s"
                ) from None

    async def _await_lease(self, lease: _Lease) -> str:
        """Wait one attempt out; ``"done"`` / ``"requeued"`` / ``"timeout"``."""
        result = asyncio.ensure_future(asyncio.shield(lease.future))
        requeued = asyncio.ensure_future(lease.requeue.wait())
        done, pending = await asyncio.wait(
            {result, requeued},
            timeout=self.lease_timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        for task in pending:
            task.cancel()
        for task in done:
            task.exception()  # retrieved; the real outcome reads lease.future
        if lease.future.done():
            return "done"
        if lease.requeue.is_set():
            return "requeued"
        return "timeout"

    async def execute(
        self, topology: str, requests: list[DiagnosisRequest]
    ) -> tuple[list[DiagnosisResponse], dict]:
        """Run one batch on some live worker; retries/requeues are internal.

        Returns the same ``(responses, stats)`` shape as
        :func:`~repro.service.executor.run_batch_local` so the service's
        batch tail (metrics, store commit, future resolution) is identical
        whichever executor ran the work.  Raises
        :class:`FabricUnavailableError` when the fabric cannot complete the
        lease — the caller's cue to execute locally.
        """
        if self._closed:
            raise FabricUnavailableError("coordinator closed")
        loop = asyncio.get_running_loop()
        lease = _Lease(next(self._lease_ids), list(requests), loop.create_future())
        self._leases[lease.lease_id] = lease
        frame = encode_lease(lease.lease_id, lease.requests)
        try:
            while True:
                if lease.future.done():  # a straggler from a prior attempt
                    return lease.future.result()
                if lease.attempts >= self.max_attempts:
                    raise FabricUnavailableError(
                        f"lease {lease.lease_id} exhausted "
                        f"{self.max_attempts} dispatch attempts"
                    )
                link = await self._acquire_link()
                lease.attempts += 1
                lease.requeue = asyncio.Event()
                link.inflight.add(lease.lease_id)
                self.metrics.worker(link.worker_id)["dispatched"] += 1
                try:
                    await link.channel.send(frame)
                except (ConnectionError, OSError):
                    # The reader loop notices the same death and evicts; for
                    # this lease the failed send *is* the requeue.
                    link.inflight.discard(lease.lease_id)
                    self.metrics.worker(link.worker_id)["requeued"] += 1
                    continue
                outcome = await self._await_lease(lease)
                if outcome == "done":
                    return lease.future.result()
                if outcome == "requeued":
                    continue
                # Lease timeout: the worker is alive but the answer never
                # came (lost lease, lost result, or genuinely slow work).
                link.inflight.discard(lease.lease_id)
                self.metrics.worker(link.worker_id)["retried"] += 1
                await asyncio.sleep(min(
                    self.backoff_base * 2 ** (lease.attempts - 1),
                    self.backoff_cap,
                ))
        finally:
            self._leases.pop(lease.lease_id, None)

    # ----------------------------------------------------------------- stats
    def stats(self) -> dict:
        """The fabric section of the service's ``stats()`` snapshot."""
        registry = self.registry.stats()
        return {
            "address": self.address,
            "workers_known": registry["known"],
            "workers_live": len(self.live_workers()),
            "live_workers": self.live_workers(),
            "worker_evictions": registry["evictions"],
            "outstanding_leases": len(self._leases),
            "duplicate_completions": self.duplicate_completions,
            "protocol_errors": self.protocol_errors,
            "last_worker_errors": dict(self.last_worker_errors),
            "workers": registry["workers"],
        }
