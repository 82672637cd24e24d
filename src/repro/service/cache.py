"""Bounded LRU caching with hit/miss/eviction accounting.

Long-running processes — the diagnosis service above all, but also the
network registry's instance memo — must not grow without bound: every cached
network instance pins its compiled CSR arrays, so an unbounded memo in a
server that sees many distinct topologies is a slow memory leak.  On the
serving path the cost is paid up front: :func:`~repro.service.executor.\
resolve_topology` returns entries *warmed* — rows and pair bases
materialised — so a cache hit does no topology build work inside the
measured window.  :class:`LRUCache`
is the one bounded replacement for the ad-hoc dict memos: least-recently-used
eviction, a configurable capacity, and a :class:`CacheStats` counter set that
the service's ``stats`` endpoint and the registry's :func:`cache_stats`
accessor expose.

The cache is deliberately synchronous and unlocked: every user runs it from
a single thread (the asyncio event loop, or a worker process's main thread).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Iterator, TypeVar

__all__ = ["CacheStats", "LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: distinguishes "no entry" from a stored ``None`` in :meth:`LRUCache.put`
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing has been looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache(Generic[K, V]):
    """A bounded mapping with least-recently-used eviction and counters.

    ``capacity=0`` degenerates to a pass-through: nothing is retained and
    every lookup misses — the configuration the benchmarks use as the
    "no caching" baseline.  Capacity can be resized live; shrinking evicts
    the stale tail immediately.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        on_evict: Callable[[K, V], None] | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        #: called with (key, value) for every capacity eviction (not for
        #: :meth:`clear`) — lets owners of external resources pinned by an
        #: entry release them when the cache lets go
        self._on_evict = on_evict

    # ---------------------------------------------------------------- lookups
    def get(self, key: K, default: V | None = None) -> V | None:
        """The cached value (refreshing its recency), or ``default``."""
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            return default
        self._hits += 1
        self._entries.move_to_end(key)
        return value

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """The cached value, or ``factory()`` stored (capacity permitting)."""
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            value = factory()
            self.put(key, value)
            return value
        self._hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if needed.

        With ``capacity=0`` the entry is dropped on the spot — counted as an
        eviction, ``on_evict`` fired — so owners of external resources (the
        pooled service's shm segments) see every value they handed in let go
        of, whichever capacity is configured.
        """
        if self._capacity == 0:
            self._evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)
            return
        displaced = self._entries.get(key, _MISSING)
        self._entries[key] = value
        self._entries.move_to_end(key)
        # A replaced value is let go of just like a capacity eviction: the
        # owner of whatever it pins (a pooled topology's shm segment) must
        # hear about it, or the replacement silently leaks the resource.
        # Re-putting the very same object is a refresh, not a displacement.
        if displaced is not _MISSING and displaced is not value:
            self._evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, displaced)
        self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        while len(self._entries) > self._capacity:
            key, value = self._entries.popitem(last=False)
            self._evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)

    # ------------------------------------------------------------- management
    @property
    def capacity(self) -> int:
        return self._capacity

    def resize(self, capacity: int) -> None:
        """Change the bound; shrinking evicts least-recent entries now."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = int(capacity)
        if self._capacity == 0:
            while self._entries:
                key, value = self._entries.popitem(last=False)
                self._evictions += 1
                if self._on_evict is not None:
                    self._on_evict(key, value)
        else:
            self._evict_to_capacity()

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating; evictions unchanged)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            capacity=self._capacity,
        )

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        """Membership test without touching recency or counters."""
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Keys, least-recently used first (eviction order)."""
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LRUCache(size={len(self._entries)}/{self._capacity}, "
            f"hits={self._hits}, misses={self._misses}, evictions={self._evictions})"
        )
