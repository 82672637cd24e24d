"""Persistent worker pool over shared-memory topologies.

:class:`WorkerPool` is the execution substrate of the scale-out layer: a
process pool whose workers map compiled topologies and syndrome buffers
straight out of :mod:`multiprocessing.shared_memory` (see
:mod:`repro.parallel.shm`) instead of receiving pickled arrays — or, as the
pre-pool fan-out did, recompiling the topology once per worker.  The pool is
*persistent*: worker-side caches (attached topologies, attached buffers, the
registry's network memo) survive across tasks, so a sweep of hundreds of
trials pays each attachment exactly once per worker.

Transport
---------
The first :meth:`~WorkerPool.submit` forks ``max_workers`` workers, each
owning one duplex pipe to the owner.  ``submit`` pickles the task and writes
it to the least-loaded worker's pipe on the calling thread, and returns a
plain :class:`concurrent.futures.Future`.  A worker runs its tasks in
arrival order and writes each reply back on its pipe, so the owner matches
replies to futures by order alone.  One reader thread waits on every pipe
and every worker's exit sentinel and resolves the futures; there is no
manager thread, feeder thread or shared call queue between a submit and the
worker.  A task's exception, or a value that does not pickle, fails only
that task's future.  A worker that dies outside :meth:`~WorkerPool.shutdown`
breaks the pool as ``ProcessPoolExecutor`` does: every outstanding future
fails with :class:`~concurrent.futures.process.BrokenProcessPool`, the other
workers are terminated, and later submits raise it until shutdown.

Segments
--------
The pool owns every segment it publishes and unlinks them all on
:meth:`~WorkerPool.shutdown` (or, defensively, when the owning objects are
garbage collected — see :class:`~repro.parallel.shm.OwnedSegment`), so a
crashed or abandoned run leaves no segments behind.  Callers may unlink one
earlier with :meth:`~WorkerPool.release`; the diagnosis service does so for
the topologies its cache evicts and, on close, for the syndrome staging
segments it refills in place through :meth:`~WorkerPool.buffer`.

Task functions live with their callers (the trial-chunk tasks in
:mod:`repro.experiments.trials`, the batch task in
:mod:`repro.service.executor`); this module only provides the pool, the
worker-side attachment caches (:func:`worker_topology`,
:func:`worker_buffer`) and :func:`worker_health` — the per-task diagnostics
proving the zero-recompilation claim.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import selectors
import signal
import threading
import traceback
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory
from typing import Callable

import numpy as np

# compile_delta_probe lives with the counter it reads, so in-process
# serving never imports this module; it is re-exported for pool tasks.
from ..backend.csr import (
    CSRAdjacency,
    compile_count,
    compile_delta_probe,
    compile_network,
)
from .shm import (
    BufferHandle,
    OwnedSegment,
    TopologyHandle,
    attach_buffer,
    attach_topology,
    detach,
    publish_buffer,
    publish_topology,
)

__all__ = [
    "WorkerPool",
    "adopt_worker_topology",
    "compile_delta_probe",
    "worker_network",
    "worker_topology",
    "worker_buffer",
    "worker_health",
]

_FORK = multiprocessing.get_context("fork")
_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: The empty message: a worker that reads it exits after the tasks before it.
_STOP = b""
_BROKEN = "a pool worker terminated abruptly; the pool is unusable until shutdown"


def default_worker_count() -> int:
    """Default pool width: the machine's cores, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


class _RemoteTraceback(Exception):
    """A task's worker-side traceback, chained as its exception's cause."""

    def __str__(self) -> str:
        return self.args[0]


def _error_reply(exc: BaseException) -> bytes:
    """The pickled failure reply for ``exc`` (its pickling error if it has none)."""
    trace = "".join(traceback.format_exception(exc))
    try:
        return pickle.dumps((False, exc, trace), _PROTOCOL)
    except Exception as unpicklable:
        trace += "".join(traceback.format_exception(unpicklable))
        return pickle.dumps((False, unpicklable, trace), _PROTOCOL)


def _worker_main(conn, siblings) -> None:
    """A worker's life: read a task, run it, write its reply, until stopped."""
    # Owner-side ends of earlier workers' pipes, copied by the fork: holding
    # them would keep those workers from seeing EOF when the owner dies.
    for other in siblings:
        other.close()
    # The owner's signal handlers may write to its event loop's wake-up fd,
    # which the fork shares; a signalled worker must just die.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:  # the owner is gone
            return
        if message == _STOP:
            return
        try:
            fn, args, kwargs = pickle.loads(message)
            reply = pickle.dumps((True, fn(*args, **kwargs)), _PROTOCOL)
        except BaseException as exc:  # even SystemExit: it is the task's outcome
            reply = _error_reply(exc)
        try:
            conn.send_bytes(reply)
        except OSError:  # the owner is gone
            return


class _Worker:
    """One forked worker: its process, its pipe and its futures in task order."""

    __slots__ = ("process", "conn", "futures", "send_lock", "stopping")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.futures: deque[Future] = deque()
        self.send_lock = threading.Lock()
        self.stopping = False


class WorkerPool:
    """A persistent process pool sharing compiled topologies via shared memory.

    Parameters
    ----------
    max_workers:
        Pool width; defaults to :func:`default_worker_count`.  Workers are
        forked lazily on first submit, so constructing a pool is free.

    Usage::

        with WorkerPool(max_workers=4) as pool:
            handle = pool.publish_topology(csr)     # one copy, in shm
            futures = [pool.submit(task, handle, chunk) for chunk in chunks]

    Published segments are tracked and unlinked on shutdown; per-run buffers
    can be released earlier with :meth:`release`.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = (
            default_worker_count() if max_workers is None else max(1, int(max_workers))
        )
        #: the live workers, forked on first submit (empty until then)
        self._workers: list[_Worker] = []
        self._reader: threading.Thread | None = None
        self._broken = False
        #: guards worker selection, the future queues and ``_broken``
        self._lock = threading.Lock()
        self._segments: dict[str, OwnedSegment] = {}
        #: topology handles memoized per published CSR (id -> handle); the
        #: CSR object itself is retained so the id cannot be recycled
        self._topologies: dict[int, tuple[CSRAdjacency, TopologyHandle]] = {}

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the workers and unlink every segment this pool published.

        Workers finish the tasks already sent to them first; ``wait=True``
        returns once they have exited.
        """
        self._stop_workers(wait=wait)
        for segment in self._segments.values():
            segment.close()
        self._segments.clear()
        self._topologies.clear()

    def _start_workers(self) -> list[_Worker]:
        """Fork the workers and start the reader thread (caller holds the lock)."""
        # Forked workers must share this process's resource tracker: one
        # that started its own would unlink every segment it attached when
        # it exits (see repro.parallel.shm).
        resource_tracker.ensure_running()
        workers: list[_Worker] = []
        for _ in range(self.max_workers):
            owner_end, worker_end = _FORK.Pipe()
            process = _FORK.Process(
                target=_worker_main,
                args=(worker_end, [worker.conn for worker in workers]),
                daemon=True,
            )
            process.start()
            worker_end.close()
            workers.append(_Worker(process, owner_end))
        self._reader = threading.Thread(
            target=self._read_replies, args=(workers,),
            name="WorkerPool-reader", daemon=True,
        )
        self._reader.start()
        self._workers = workers
        return workers

    def _stop_workers(self, *, wait: bool = True) -> None:
        """Send every worker the stop message (after its queued tasks)."""
        with self._lock:
            workers, self._workers = self._workers, []
            reader, self._reader = self._reader, None
            self._broken = False
        for worker in workers:
            worker.stopping = True
            with worker.send_lock:
                try:
                    worker.conn.send_bytes(_STOP)
                except OSError:  # already dead; the reader has seen it
                    pass
        if wait and reader is not None:
            reader.join()
            for worker in workers:
                worker.process.join()

    def _read_replies(self, workers: list[_Worker]) -> None:
        """The reader thread: resolve futures until every worker has exited."""
        selector = selectors.DefaultSelector()
        for worker in workers:
            selector.register(worker.conn, selectors.EVENT_READ, worker)
            selector.register(worker.process.sentinel, selectors.EVENT_READ, worker)
        live = len(workers)
        while live:
            for key, _ in selector.select():
                worker = key.data
                if key.fileobj is worker.conn:
                    try:
                        self._resolve(worker, worker.conn.recv_bytes())
                    except (EOFError, OSError):  # the sentinel reports the exit
                        selector.unregister(worker.conn)
                    continue
                selector.unregister(key.fileobj)
                live -= 1
                try:  # replies written before the exit are still valid
                    while worker.conn.poll():
                        self._resolve(worker, worker.conn.recv_bytes())
                except (EOFError, OSError):
                    pass
                if worker.futures or not worker.stopping:
                    self._break(workers)
        selector.close()
        for worker in workers:
            worker.conn.close()

    @staticmethod
    def _resolve(worker: _Worker, message: bytes) -> None:
        if not worker.futures:  # its future was failed when the pool broke
            return
        future = worker.futures.popleft()
        try:
            ok, value, *trace = pickle.loads(message)
        except Exception as exc:  # e.g. an exception class that cannot rebuild
            future.set_exception(exc)
            return
        if ok:
            future.set_result(value)
        else:
            value.__cause__ = _RemoteTraceback(trace[0])
            future.set_exception(value)

    def _break(self, workers: list[_Worker]) -> None:
        """A worker died: fail every outstanding future, stop the rest."""
        error = BrokenProcessPool(_BROKEN)
        with self._lock:
            if self._workers is workers:
                self._broken = True
            orphans = []
            for worker in workers:
                worker.stopping = True
                orphans.extend(worker.futures)
                worker.futures.clear()
        for worker in workers:
            worker.process.terminate()
        for future in orphans:
            future.set_exception(error)

    # ------------------------------------------------------------ publishing
    def publish_topology(self, topology) -> TopologyHandle:
        """Place a compiled topology in shared memory (memoized per object).

        Accepts a network or a :class:`CSRAdjacency`; the same object is
        published at most once per pool, so every group of a sweep that runs
        on the same memoized instance shares one segment.
        """
        csr = compile_network(topology)
        cached = self._topologies.get(id(csr))
        if cached is not None:
            return cached[1]
        handle, segment = publish_topology(csr)
        self._segments[handle.name] = segment
        self._topologies[id(csr)] = (csr, handle)
        return handle

    def release_topology(self, topology) -> None:
        """Unlink a published topology and drop its memo entry.

        For callers that bound their own topology working set (the diagnosis
        service's LRU): the caller must guarantee no in-flight task still
        carries the handle — workers that already attached keep their mapping
        (an unlinked segment lives until the last mapping closes), but a
        *queued* task would fail to attach a name that no longer exists.
        Unknown topologies are ignored.
        """
        csr = compile_network(topology)
        cached = self._topologies.pop(id(csr), None)
        if cached is not None:
            self.release(cached[1])

    def publish_buffer(self, data) -> BufferHandle:
        """Copy a bytes-like object into a tracked shared segment."""
        handle, segment = publish_buffer(data)
        self._segments[handle.name] = segment
        return handle

    def buffer(self, handle: BufferHandle) -> memoryview:
        """The owner's writable view of a published buffer.

        A caller that refills a buffer in place must not do so while a task
        that carries the handle is still queued or running.
        """
        return self._segments[handle.name].buf[:handle.size]

    def release(self, handle: TopologyHandle | BufferHandle) -> None:
        """Unlink one published segment before shutdown (per-run buffers)."""
        segment = self._segments.pop(handle.name, None)
        if segment is not None:
            segment.close()

    # ------------------------------------------------------------- execution
    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Send a task to the least-loaded worker (plain ``Future``).

        Raises :class:`~concurrent.futures.process.BrokenProcessPool` once a
        worker has died; a task that does not pickle fails its future.
        """
        return self._submit(None, fn, args, kwargs)

    def _submit(self, index: int | None, fn: Callable, args, kwargs) -> Future:
        """Send a task to worker ``index``, or to the least-loaded one."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            message = pickle.dumps((fn, args, kwargs), _PROTOCOL)
        except Exception as exc:
            future.set_exception(exc)
            return future
        with self._lock:
            if self._broken:
                raise BrokenProcessPool(_BROKEN)
            workers = self._workers or self._start_workers()
            if index is None:
                worker = min(workers, key=lambda w: len(w.futures))
            else:
                worker = workers[index]
        # The queue order must be the pipe order: append and send together.
        with worker.send_lock:
            with self._lock:
                if self._broken:
                    raise BrokenProcessPool(_BROKEN)
                worker.futures.append(future)
            try:
                worker.conn.send_bytes(message)
            except OSError:  # the worker died; the reader fails the future
                pass
        return future

    def health(self) -> list[dict]:
        """One :func:`worker_health` report per worker, sorted by pid.

        Each probe goes down its own worker's pipe, bypassing least-loaded
        routing, so every worker answers exactly once, busy or idle.
        """
        futures = [
            self._submit(index, worker_health, (), {})
            for index in range(self.max_workers)
        ]
        return sorted((f.result() for f in futures), key=lambda r: r["pid"])


# ----------------------------------------------------------- worker-side state
#: Attached topologies, keyed by segment name.  Bounded LRU-style like the
#: buffer cache below: a long-running service evicts, releases and
#: re-publishes topologies under fresh segment names, and a worker that
#: cached every name it ever attached would keep each superseded mapping
#: alive forever.
_TOPOLOGY_CACHE: "OrderedDict[str, CSRAdjacency]" = OrderedDict()
_TOPOLOGY_CACHE_LIMIT = 8

#: Evicted mappings that could not unmap yet because live views still export
#: their buffer (typically an adopted ``_csr_adjacency`` in the worker's
#: registry memo).  Holding them here keeps ``SharedMemory.__del__`` from
#: racing those views at garbage collection; every later eviction retries,
#: so each mapping is unmapped at the first eviction after its views die.
_TOPOLOGY_RETIRED: list[shared_memory.SharedMemory] = []


def _try_unmap(segment: shared_memory.SharedMemory) -> bool:
    """Close an attached mapping if nothing exports its buffer any more."""
    try:
        segment.close()
    except BufferError:
        return False
    detach(segment)  # already closed: this just drops the registry pin
    return True

#: Attached syndrome buffers, keyed by segment name.  The service's staging
#: segments keep their names while refilled in place, so they stay hits;
#: per-run buffers get fresh names, so the cache is bounded LRU.  The
#: mapping object rides along with the view to keep it alive.
_BUFFER_CACHE: "OrderedDict[str, tuple[np.ndarray, shared_memory.SharedMemory]]" = (
    OrderedDict()
)
_BUFFER_CACHE_LIMIT = 8


def worker_topology(handle: TopologyHandle) -> CSRAdjacency:
    """The worker's zero-copy view of a published topology (cached, bounded)."""
    csr = _TOPOLOGY_CACHE.get(handle.name)
    if csr is None:
        csr = attach_topology(handle)
        _TOPOLOGY_CACHE[handle.name] = csr
        while len(_TOPOLOGY_CACHE) > _TOPOLOGY_CACHE_LIMIT:
            _, stale = _TOPOLOGY_CACHE.popitem(last=False)
            if not _try_unmap(stale._shm):
                _TOPOLOGY_RETIRED.append(stale._shm)
        _TOPOLOGY_RETIRED[:] = [
            segment for segment in _TOPOLOGY_RETIRED if not _try_unmap(segment)
        ]
    else:
        _TOPOLOGY_CACHE.move_to_end(handle.name)
    return csr


def adopt_worker_topology(network, handle: TopologyHandle) -> None:
    """Give a worker-side network object the shared compiled topology.

    A network without a compiled adjacency (the pool forked before this
    topology was ever compiled) attaches the whole CSR zero-copy, which the
    compile delta proves; a fork-inherited adjacency is kept as it is.
    """
    if getattr(network, "_csr_adjacency", None) is None:
        network._csr_adjacency = worker_topology(handle)


def worker_network(family: str, params, handle: TopologyHandle):
    """Worker-side ``(network, csr)`` resolution shared by every pool task.

    The network object comes from the registry memo (persistent across the
    worker's lifetime); its compiled adjacency is adopted from the shared
    mapping of ``handle``, so the worker never walks the topology itself.
    """
    from ..networks.registry import cached_network

    network = cached_network(family, **dict(params))
    adopt_worker_topology(network, handle)
    return network, compile_network(network)


def worker_buffer(handle: BufferHandle) -> np.ndarray:
    """The worker's zero-copy ``uint8`` view of a published buffer (cached)."""
    entry = _BUFFER_CACHE.get(handle.name)
    if entry is None:
        entry = attach_buffer(handle)
        _BUFFER_CACHE[handle.name] = entry
        while len(_BUFFER_CACHE) > _BUFFER_CACHE_LIMIT:
            _, (_, stale) = _BUFFER_CACHE.popitem(last=False)
            detach(stale)  # unmap and drop the registry pin
    else:
        _BUFFER_CACHE.move_to_end(handle.name)
    return entry[0]


def worker_health() -> dict:
    """Worker diagnostics: pid, cache sizes and the process compile counts.

    ``compiles`` is the worker's :func:`repro.backend.csr.compile_count` —
    the number expected to stay at whatever the fork inherited, because
    shared-memory attachment replaces every per-worker topology walk.
    """
    return {
        "pid": os.getpid(),
        "topologies_attached": len(_TOPOLOGY_CACHE),
        "buffers_attached": len(_BUFFER_CACHE),
        "compiles": compile_count(),
    }
