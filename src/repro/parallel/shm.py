"""Shared-memory placement of compiled topologies and syndrome buffers.

The scale-out subsystem (:mod:`repro.parallel`) runs one diagnosis — or one
sweep of many diagnoses — across a pool of worker processes.  Everything the
hot paths touch is flat arrays (the CSR ``indptr``/``indices`` pair of
:class:`~repro.backend.csr.CSRAdjacency` and the byte buffer of
:class:`~repro.backend.array_syndrome.ArraySyndrome`), so instead of pickling
those arrays into every task — or worse, recompiling the topology once per
worker, which is what the pre-pool process fan-out did — the owner process
places them in :mod:`multiprocessing.shared_memory` **once** and workers map
them zero-copy:

* :func:`publish_topology` serialises a compiled CSR into one segment
  (``indptr`` as ``int64`` followed by ``indices`` as ``int32``) and returns a
  small picklable :class:`TopologyHandle`;
* :func:`attach_topology` reconstructs a :class:`CSRAdjacency` in the worker
  whose arrays are *views* over the mapped segment — no copy, no walk of the
  topology, and the derived pair layout (an ``N``-element cumsum) is the only
  per-worker work;
* :func:`publish_buffer` / :func:`attach_buffer` do the same for raw byte
  buffers (syndrome results, shard membership masks).

Ownership and cleanup
---------------------
Every segment has exactly one owner: the process that published it.  The
:class:`OwnedSegment` wrapper unlinks the segment when closed and carries a
``weakref.finalize`` guard so that segments are reclaimed even if the owner
forgets (or crashes through an exception path) — the lifecycle tests assert
that no segment survives a pool shutdown.

Workers never unlink segments they merely attached.  The pool's workers are
*forked* (the Linux default), so they share the owner's ``resource_tracker``
process: a worker's attach re-registers the same name into the same tracker
set (a no-op), and the owner's ``unlink()`` — which unregisters as a side
effect — keeps the tracker exactly balanced with no spurious cleanup when a
worker exits.  Attached mappings are pinned in a process-level registry
(:data:`_ATTACHED`) until :func:`detach` releases them, so their wrapper
objects never race live numpy views at garbage-collection time.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..backend.csr import CSRAdjacency

__all__ = [
    "TopologyHandle",
    "BufferHandle",
    "OwnedSegment",
    "publish_topology",
    "attach_topology",
    "publish_buffer",
    "attach_buffer",
    "allocate_buffer",
]

_INT64 = np.dtype(np.int64)
_INT32 = np.dtype(np.int32)


@dataclass(frozen=True)
class TopologyHandle:
    """Picklable reference to a compiled topology placed in shared memory."""

    name: str
    num_nodes: int
    num_entries: int


@dataclass(frozen=True)
class BufferHandle:
    """Picklable reference to a raw byte buffer placed in shared memory."""

    name: str
    size: int


class OwnedSegment:
    """A shared-memory segment owned (and eventually unlinked) by this process.

    The segment is unlinked exactly once — explicitly via :meth:`close`, or by
    the ``weakref.finalize`` guard at garbage collection / interpreter exit if
    the owner never got there (the "pool crashed" path the lifecycle tests
    exercise).
    """

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self._segment = segment
        self.name = segment.name
        # The owner pid pins cleanup to the publishing process: a forked
        # worker inherits this object in its memory image, and must never
        # unlink a segment the coordinator still serves to other workers.
        self._finalizer = weakref.finalize(self, _release, segment, os.getpid())

    @property
    def buf(self) -> memoryview:
        return self._segment.buf

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self.closed else "open"
        return f"OwnedSegment({self.name!r}, {state})"


def _release(segment: shared_memory.SharedMemory, owner_pid: int) -> None:
    if os.getpid() != owner_pid:  # forked copy: not ours to destroy
        return
    try:
        segment.close()
    except BufferError:
        # An owner-side numpy view is still alive; the mapping is freed when
        # the last view dies.  Unlinking the name below is what matters for
        # the no-leaked-segments guarantee.
        pass
    try:
        # unlink() also unregisters the name from the resource tracker, so the
        # owner's exit neither warns about nor re-attempts the cleanup.
        segment.unlink()
    except FileNotFoundError:  # already unlinked by another path
        pass


#: Every live mapping this process attached (never owned).  Holding them here
#: pins the wrapper objects so ``SharedMemory.__del__`` never races the numpy
#: views during garbage collection; :func:`detach` closes a mapping and drops
#: it from the registry again, which is how the pool's buffer-cache eviction
#: keeps long-lived workers bounded (topologies per sweep plus at most the
#: cache limit of transient buffers).
_ATTACHED: list[shared_memory.SharedMemory] = []


def attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without adopting ownership.

    Workers are forked (the Linux default the pool relies on), so they share
    the owner's ``resource_tracker`` process: attaching re-registers the same
    name into the same tracker set (a no-op), and the owner's ``unlink()``
    (which unregisters as a side effect) keeps the tracker exactly balanced —
    no spurious unlinks when a worker exits, no leak warnings at shutdown.
    """
    segment = shared_memory.SharedMemory(name=name)
    _ATTACHED.append(segment)
    return segment


def detach(segment: shared_memory.SharedMemory) -> None:
    """Unmap an attached segment and release its registry pin (no unlink).

    Tolerates live views (the mapping then lingers until the last view dies)
    and segments that were never registered.
    """
    try:
        segment.close()
    except BufferError:  # a view still exports the buffer; freed with it
        pass
    try:
        _ATTACHED.remove(segment)
    except ValueError:
        pass


# ------------------------------------------------------------------- topology
def publish_topology(csr: CSRAdjacency) -> tuple[TopologyHandle, OwnedSegment]:
    """Place a compiled CSR adjacency into one shared-memory segment.

    Layout: ``indptr`` (``int64``, ``N + 1`` entries) followed by ``indices``
    (``int32``, ``E`` entries).  The pair *layout* (``pair_indptr``) is never
    stored — attachers re-derive it with one cheap cumsum in
    :class:`CSRAdjacency.__init__`.
    """
    indptr_bytes = (csr.num_nodes + 1) * _INT64.itemsize
    indices_bytes = csr.num_entries * _INT32.itemsize
    segment = shared_memory.SharedMemory(
        create=True, size=max(1, indptr_bytes + indices_bytes)
    )
    owned = OwnedSegment(segment)
    indptr_view = np.frombuffer(segment.buf, dtype=_INT64, count=csr.num_nodes + 1)
    indptr_view[:] = csr.indptr
    indices_view = np.frombuffer(
        segment.buf, dtype=_INT32, count=csr.num_entries, offset=indptr_bytes
    )
    indices_view[:] = csr.indices
    handle = TopologyHandle(
        name=segment.name, num_nodes=csr.num_nodes, num_entries=csr.num_entries
    )
    return handle, owned


def attach_topology(handle: TopologyHandle) -> CSRAdjacency:
    """Reconstruct a :class:`CSRAdjacency` over the mapped segment (zero-copy).

    The returned object keeps the :class:`SharedMemory` mapping alive via the
    ``_shm`` attribute for as long as the CSR (and any array views handed out
    from it) is referenced.
    """
    segment = attach(handle.name)
    indptr_bytes = (handle.num_nodes + 1) * _INT64.itemsize
    indptr = np.frombuffer(segment.buf, dtype=_INT64, count=handle.num_nodes + 1)
    indices = np.frombuffer(
        segment.buf, dtype=_INT32, count=handle.num_entries, offset=indptr_bytes
    )
    csr = CSRAdjacency(indptr, indices)
    csr._shm = segment  # keep the mapping alive alongside the views
    return csr


# -------------------------------------------------------------------- buffers
def publish_buffer(data) -> tuple[BufferHandle, OwnedSegment]:
    """Place a bytes-like object (syndrome buffer, mask) into shared memory."""
    view = memoryview(data).cast("B")
    size = view.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(1, size))
    owned = OwnedSegment(segment)
    segment.buf[:size] = view
    return BufferHandle(name=segment.name, size=size), owned


def allocate_buffer(size: int) -> tuple[BufferHandle, OwnedSegment]:
    """Create a zero-filled shared buffer the owner will write incrementally."""
    segment = shared_memory.SharedMemory(create=True, size=max(1, size))
    owned = OwnedSegment(segment)
    segment.buf[:size] = bytes(size)
    return BufferHandle(name=segment.name, size=size), owned


def attach_buffer(
    handle: BufferHandle,
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map a shared buffer as a writable ``uint8`` array view (zero-copy).

    Returns the array together with the mapping; the caller must keep the
    mapping referenced for as long as the view is used (worker caches hold
    both).  As with :func:`attach_topology`, the attaching process never
    unlinks.
    """
    segment = attach(handle.name)
    array = np.frombuffer(segment.buf, dtype=np.uint8, count=handle.size)
    return array, segment
