"""`repro.fabric` — the cross-machine worker fabric.

This package is where the repo's two scale-out halves finally meet:
:mod:`repro.parallel` fans work out within one machine over shared memory, and
:mod:`repro.distributed` models lossy channels — the fabric moves *real*
diagnosis batches between machines over a framed-socket sibling of the HTTP
wire protocol, with the channel models injected on the data plane:

* :mod:`~repro.fabric.protocol` — length-prefixed JSON framing, the
  control/data-plane split, and :class:`FaultPolicy` /
  :class:`FrameChannel` (drop / duplicate / delay injection reusing
  :class:`~repro.distributed.events.ChannelConfig`);
* :mod:`~repro.fabric.registry` — :class:`WorkerRegistry`, the pure
  register → heartbeat → miss → dead → rejoin state machine;
* :mod:`~repro.fabric.coordinator` — :class:`FabricCoordinator`, the
  asyncio server leasing coalesced batches to live workers with
  timeout-and-backoff retry, death-triggered requeue and
  duplicate-completion dedup;
* :mod:`~repro.fabric.worker` — :class:`FabricWorker`, the remote process:
  hello/heartbeat plus lease execution through exactly the local batch
  path (:func:`~repro.service.executor.run_batch_local`), so fabric
  responses are bit-identical to direct serving.

Attribute access is lazy (PEP 562), mirroring :mod:`repro.service`.
"""

from __future__ import annotations

_EXPORTS = {
    "DATA_PLANE_KINDS": "protocol",
    "FabricUnavailableError": "protocol",
    "FaultPolicy": "protocol",
    "FrameChannel": "protocol",
    "FrameError": "protocol",
    "MAX_FRAME_BYTES": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "read_frame": "protocol",
    "write_frame": "protocol",
    "WorkerInfo": "registry",
    "WorkerRegistry": "registry",
    "FabricCoordinator": "coordinator",
    "FabricWorker": "worker",
    "run_worker": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
