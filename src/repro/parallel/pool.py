"""Persistent worker pool over shared-memory topologies.

:class:`WorkerPool` is the execution substrate of the scale-out layer: a
process pool whose workers map compiled topologies and syndrome buffers
straight out of :mod:`multiprocessing.shared_memory` (see
:mod:`repro.parallel.shm`) instead of receiving pickled arrays — or, as the
pre-pool fan-out did, recompiling the topology once per worker.  The pool is
*persistent*: worker-side caches (attached topologies, attached buffers, the
registry's network memo) survive across tasks, so a sweep of hundreds of
trials pays each attachment exactly once per worker.

The pool owns every segment it publishes and unlinks them all on
:meth:`shutdown` (or, defensively, when the owning objects are garbage
collected — see :class:`~repro.parallel.shm.OwnedSegment`), so a crashed or
abandoned run leaves no segments behind.

Task functions live with their callers (the shard-expansion task in
:mod:`repro.parallel.sharded`, the trial-chunk tasks in
:mod:`repro.experiments.trials`); this module only provides the pool, the
worker-side attachment caches (:func:`worker_topology`,
:func:`worker_buffer`) and :func:`worker_health` — the per-task diagnostics
proving the zero-recompilation claim.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from ..backend.csr import CSRAdjacency, compile_count, compile_network
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


def default_worker_count() -> int:
    """Default pool width: the machine's cores, capped at 4."""
    return max(1, min(4, os.cpu_count() or 1))


class WorkerPool:
    """A persistent process pool sharing compiled topologies via shared memory.

    Parameters
    ----------
    max_workers:
        Pool width; defaults to :func:`default_worker_count`.  The executor is
        created lazily on first submit, so constructing a pool is free.

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
        self._executor: ProcessPoolExecutor | None = None
        self._segments: dict[str, OwnedSegment] = {}
        #: topology handles memoized per published CSR (id -> handle); the
        #: CSR object itself is retained so the id cannot be recycled
        self._topologies: dict[int, tuple[CSRAdjacency, TopologyHandle]] = {}

    # ------------------------------------------------------------- lifecycle
    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the workers and unlink every segment this pool published."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None
        for segment in self._segments.values():
            segment.close()
        self._segments.clear()
        self._topologies.clear()

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

    def allocate_buffer(self, size: int) -> tuple[BufferHandle, np.ndarray]:
        """A zero-filled tracked segment plus the owner's writable view."""
        from .shm import allocate_buffer

        handle, segment = allocate_buffer(size)
        self._segments[handle.name] = segment
        view = np.frombuffer(segment.buf, dtype=np.uint8, count=size)
        return handle, view

    def release(self, handle: TopologyHandle | BufferHandle) -> None:
        """Unlink one published segment before shutdown (per-run buffers)."""
        segment = self._segments.pop(handle.name, None)
        if segment is not None:
            segment.close()

    # ------------------------------------------------------------- execution
    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Submit a task to the pool (plain ``concurrent.futures`` future)."""
        return self.executor.submit(fn, *args, **kwargs)

    def health(self) -> list[dict]:
        """One :func:`worker_health` report per worker (best effort).

        Submits ``max_workers`` probes; with a busy pool some workers may
        answer twice and others not at all, so reports are deduplicated by
        pid — the point is visibility (attachment cache sizes, compile
        counts), not an exact census.
        """
        futures = [self.submit(worker_health) for _ in range(self.max_workers)]
        reports = {report["pid"]: report for report in (f.result() for f in futures)}
        return sorted(reports.values(), key=lambda r: r["pid"])


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

#: Attached transient buffers (syndromes, membership masks), keyed by segment
#: name.  Per-run buffers get fresh names, so the cache is bounded FIFO; the
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


def adopt_worker_topology(network, handle: TopologyHandle | None) -> None:
    """Give a worker-side network object the shared compiled topology.

    A network without a compiled adjacency (the pool forked before this
    topology was ever compiled) attaches the whole CSR zero-copy, which the
    compile delta proves; a fork-inherited adjacency is kept as it is.
    """
    if handle is not None and getattr(network, "_csr_adjacency", None) is None:
        network._csr_adjacency = worker_topology(handle)


def worker_network(family: str, params, handle: TopologyHandle | None):
    """Worker-side ``(network, csr)`` resolution shared by every pool task.

    The network object comes from the registry memo (persistent across the
    worker's lifetime); its compiled adjacency is adopted from the shared
    mapping when a handle is given.  ``handle=None``
    compiles locally, the per-worker-recompilation baseline the benchmarks
    keep for comparison.
    """
    from ..networks.registry import cached_network

    network = cached_network(family, **dict(params))
    adopt_worker_topology(network, handle)
    return network, compile_network(network)


def compile_delta_probe() -> Callable[[], dict]:
    """Snapshot the evidence counters; the returned thunk reports the delta.

    Every pool task wraps its work in one probe::

        probe = compile_delta_probe()
        ...  # resolve + run
        return results, probe()

    so the coordinator can aggregate per-task proof that shared-memory
    workers never recompiled a topology.
    """
    compiles_before = compile_count()

    def stats() -> dict:
        return {"pid": os.getpid(), "compiles": compile_count() - compiles_before}

    return stats


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
