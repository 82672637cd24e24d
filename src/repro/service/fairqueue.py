"""Per-tenant weighted-fair queueing: deficit round robin over FIFOs.

The serving layer's admission problem is classic multi-tenancy: one hot
client submitting faster than the service drains must not starve many cold
clients submitting a trickle.  :class:`TenantQueues` solves the *ordering*
half — each tenant gets its own FIFO, and batches are drawn by deficit
round robin (DRR): every visit credits a tenant's deficit counter with its
weight and drains that many queued requests, so over any backlogged window a
tenant's served share converges to its weight share, while requests within
one tenant still serve strictly in arrival order.

The structure is deliberately free of asyncio and of the service itself:
it is a deterministic, synchronous scheduler (same pushes -> same takes,
bit for bit), which is what lets ``tests/service/test_fairqueue.py`` drive
random arrival sequences against an independent reference model and lets
the load generator pin fairness splits byte-for-byte across runs.

:class:`DiagnosisService` keeps one :class:`TenantQueues` per topology —
fairness is scheduled *within* each topology's queue, which the dispatcher
drains one batch at a time as execution slots free, so DRR changes who
fills a batch, never what a batch is.
"""

from __future__ import annotations

from collections import deque
from typing import TypeVar

__all__ = ["TenantQueues"]

T = TypeVar("T")


class TenantQueues:
    """Per-tenant FIFOs drained by weighted deficit round robin.

    Parameters
    ----------
    weights:
        Optional ``tenant -> weight`` map.  A weight is a positive integer:
        per full DRR rotation a tenant with weight ``w`` may dequeue up to
        ``w`` requests (plus any deficit carried from short visits).
    default_weight:
        Weight of tenants absent from ``weights`` (default 1 — plain
        round robin).

    Tenants enter the rotation in first-arrival order and leave it when
    their FIFO drains; an idle tenant carries **no** deficit (classic DRR:
    credit accumulates only while backlogged, so a tenant cannot bank
    service during idle periods and burst past its share later).
    """

    def __init__(
        self,
        *,
        weights: dict[str, int] | None = None,
        default_weight: int = 1,
    ) -> None:
        if default_weight < 1:
            raise ValueError("default_weight must be a positive integer")
        self._weights = {}
        for tenant, weight in (weights or {}).items():
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ValueError(
                    f"tenant weight must be a positive integer, "
                    f"got {tenant!r}={weight!r}"
                )
            self._weights[tenant] = weight
        self._default_weight = default_weight
        self._queues: dict[str, deque] = {}
        self._rotation: deque[str] = deque()  # backlogged tenants, visit order
        self._deficits: dict[str, int] = {}
        self._size = 0

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def weight(self, tenant: str) -> int:
        return self._weights.get(tenant, self._default_weight)

    def pending(self, tenant: str) -> int:
        """Queued requests of one tenant."""
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    def backlog(self) -> dict[str, int]:
        """``tenant -> queued count`` for every backlogged tenant."""
        return {tenant: len(queue) for tenant, queue in self._queues.items()}

    def tenants(self) -> list[str]:
        """Backlogged tenants in rotation (visit) order."""
        return list(self._rotation)

    # -------------------------------------------------------------- mutation
    def push(self, tenant: str, item: T) -> None:
        """Append ``item`` to ``tenant``'s FIFO (entering the rotation if idle)."""
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._rotation.append(tenant)
            self._deficits[tenant] = 0
        queue.append(item)
        self._size += 1

    def take(self, limit: int) -> list[T]:
        """Dequeue up to ``limit`` items in deficit-round-robin order.

        Each tenant visit adds its weight to its deficit and drains that
        many items; a visit cut short by ``limit`` keeps its unspent deficit
        and resumes at the front of the rotation on the next call, so
        fairness holds *across* batch boundaries, not just within one.
        """
        taken: list[T] = []
        if limit <= 0:
            return taken
        while self._rotation and len(taken) < limit:
            tenant = self._rotation[0]
            queue = self._queues[tenant]
            # With unit cost a completed visit always ends at deficit 0, so a
            # non-zero deficit here means the previous take() was cut short by
            # its limit mid-visit: spend the remainder before crediting again.
            if self._deficits[tenant] == 0:
                self._deficits[tenant] += self.weight(tenant)
            while queue and self._deficits[tenant] > 0 and len(taken) < limit:
                taken.append(queue.popleft())
                self._deficits[tenant] -= 1
                self._size -= 1
            if not queue:
                # Drained: leave the rotation and forfeit any deficit.
                del self._queues[tenant]
                del self._deficits[tenant]
                self._rotation.popleft()
            elif self._deficits[tenant] == 0:
                self._rotation.rotate(-1)
            # else: limit reached with deficit left; stay at the front so the
            # next take() continues exactly where this one stopped.
        return taken
