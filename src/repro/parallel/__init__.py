"""Shared-memory scale-out: persistent worker pools over published topologies.

This package is the intra-machine scale-out layer of the reproduction (the
inter-machine story is :mod:`repro.distributed`): one compiled topology — the
CSR ``indptr``/``indices`` pair plus the flat syndrome buffers — is placed in
:mod:`multiprocessing.shared_memory` once and mapped zero-copy by a
persistent pool of workers, so neither trial sweeps nor served batches ever
recompile a topology per worker.

* :mod:`~repro.parallel.shm` — publish/attach compiled topologies and byte
  buffers with strict single-owner cleanup (no leaked segments, ever);
* :mod:`~repro.parallel.pool` — :class:`WorkerPool`, the persistent process
  pool with worker-side attachment caches and health probes;
* :mod:`~repro.parallel.seeding` — positional ``SeedSequence`` seed
  derivation keeping parallel sweeps bit-identical to serial ones.
"""

from .pool import WorkerPool, default_worker_count, worker_health
from .seeding import derive_seed, spawn_seeds
from .shm import (
    BufferHandle,
    OwnedSegment,
    TopologyHandle,
    attach_buffer,
    attach_topology,
    publish_buffer,
    publish_topology,
)

__all__ = [
    "WorkerPool",
    "default_worker_count",
    "worker_health",
    "spawn_seeds",
    "derive_seed",
    "TopologyHandle",
    "BufferHandle",
    "OwnedSegment",
    "publish_topology",
    "attach_topology",
    "publish_buffer",
    "attach_buffer",
]
