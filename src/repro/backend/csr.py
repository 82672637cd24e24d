"""Flat-array (CSR) topology backend.

The object layer (:mod:`repro.networks`) describes every topology through
``neighbors(v)``, which typically *computes* a fresh Python list per call
(e.g. the hypercube XORs out one bit per dimension).  That is the right
interface for correctness and for the paper's exposition, but it charges a
large constant factor on the hot path: the ``Set_Builder`` procedure touches
every node a handful of times, and every touch re-materialises an adjacency
list and goes through attribute lookups and method dispatch.

This module compiles any network once into a :class:`CSRAdjacency` — the
standard compressed-sparse-row pair ``indptr``/``indices`` — after which the
hot paths (``Set_Builder``, the diagnosis driver, the MM-model verifier, the
distributed simulator and the baselines) operate on flat arrays:

* ``indices[indptr[v]:indptr[v+1]]`` is the **sorted** neighbour row of ``v``;
* ``has_edge`` is a bisect into a sorted row (``O(log Δ)``);
* the *pair layout* (``pair_indptr``) assigns every comparison test
  ``s_u(v, w)`` a dense slot, which :class:`~repro.backend.array_syndrome.\
ArraySyndrome` uses for O(1) syndrome access without hashing;
* ``boundary_many`` computes ``N(U) \\ U`` — the diagnosis output — from
  the rows of the nodes *outside* ``U`` only (the boundary lies in
  ``V \\ U``), so its cost follows the fault count, not the edge count.

Compilation is memoized per network instance (:func:`compile_network`) and the
registry (:func:`repro.networks.registry.cached_network`) memoizes instances
per ``(family, params)``, so an experiment sweep compiles each topology
exactly once no matter how many trials run on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..networks.base import InterconnectionNetwork

__all__ = ["CSRAdjacency", "compile_network", "compile_count"]

#: Process-wide count of full topology walks (CSRAdjacency.from_network).
#: The worker pool reports the delta observed inside each task, which is how
#: the scale-out layer *proves* its zero-recompilation claim (tests and the
#: tracked benchmark both assert the delta is 0 for shared-memory workers).
_compile_count = 0


def compile_count() -> int:
    """Number of full adjacency walks this process has performed."""
    return _compile_count


class CSRAdjacency:
    """Compressed-sparse-row adjacency of an undirected graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``N + 1``; row ``v`` occupies
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int32`` array of all neighbour ids, each row sorted ascending.
    pair_indptr:
        ``int64`` array of length ``N + 1`` assigning every unordered
        neighbour pair ``{v, w}`` of every tester ``u`` a dense slot:
        tester ``u``'s ``C(deg(u), 2)`` pairs occupy slots
        ``pair_indptr[u] .. pair_indptr[u+1]``, enumerated in the canonical
        order ``(i, j)`` with ``i < j`` over the sorted row positions.
    """

    __slots__ = (
        "indptr",
        "indices",
        "num_nodes",
        "num_entries",
        "max_degree",
        "min_degree",
        "pair_indptr",
        "num_pairs",
        "_rows",
        "_pair_base",
        "_shm",
    )

    def __init__(self, indptr, indices) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.num_nodes = len(self.indptr) - 1
        self.num_entries = int(self.indptr[-1])
        if self.num_entries != len(self.indices):
            raise ValueError("indptr and indices disagree on the entry count")
        degrees = np.diff(self.indptr)
        self.max_degree = int(degrees.max()) if self.num_nodes else 0
        self.min_degree = int(degrees.min()) if self.num_nodes else 0
        pair_counts = degrees * (degrees - 1) // 2
        self.pair_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(pair_counts, out=self.pair_indptr[1:])
        self.num_pairs = int(self.pair_indptr[-1])
        # Lazily materialised views (see the properties below).
        self._rows: list[tuple[int, ...]] | None = None
        self._pair_base: list[int] | None = None
        #: shared-memory mapping backing indptr/indices, when this instance was
        #: reconstructed by repro.parallel.shm.attach_topology (keeps the
        #: mapping alive exactly as long as the views handed out from it)
        self._shm = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_network(cls, network: "InterconnectionNetwork") -> "CSRAdjacency":
        """Compile a network's adjacency into flat arrays (one full walk)."""
        global _compile_count
        _compile_count += 1
        n = network.num_nodes
        indptr = np.zeros(n + 1, dtype=np.int64)
        flat: list[int] = []
        for v in range(n):
            row = sorted(network.neighbors(v))
            flat.extend(row)
            indptr[v + 1] = len(flat)
        return cls(indptr, np.asarray(flat, dtype=np.int32))

    # ------------------------------------------------------------------- graph
    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour row of ``v`` as an array view (no copy)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Sorted-row bisect membership test (``O(log Δ)``)."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        pos = lo + int(np.searchsorted(self.indices[lo:hi], v))
        return pos < hi and int(self.indices[pos]) == v

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """Per-node rows as Python tuples — the interpreter-friendly view.

        The canonical representation is the flat ``indptr``/``indices`` pair;
        pure-Python hot loops iterate faster over native tuples than over
        numpy slices, so this view is materialised once on first use.
        """
        if self._rows is None:
            flat = self.indices.tolist()
            ptr = self.indptr.tolist()
            self._rows = [
                tuple(flat[ptr[v]:ptr[v + 1]]) for v in range(self.num_nodes)
            ]
        return self._rows

    @property
    def pair_base(self) -> list[int]:
        """``pair_indptr`` as a Python list (fast scalar indexing)."""
        if self._pair_base is None:
            self._pair_base = self.pair_indptr.tolist()
        return self._pair_base

    def row_addresses(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``indices`` of the rows of ``nodes``, concatenated.

        Returns ``(addr, counts)``: ``indices[addr]`` lists each node's sorted
        row in turn and ``counts[k]`` is the degree of ``nodes[k]``.
        """
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        ends = np.cumsum(counts)
        addr = np.repeat(starts - (ends - counts), counts)
        addr += np.arange(addr.size)
        return addr, counts

    # ------------------------------------------------------------ set algebra
    def boundary(self, members) -> set[int]:
        """``N(U) \\ U`` for one node set ``U`` (see :meth:`boundary_many`).

        ``members`` is an iterable of node ids or a boolean mask over all
        nodes.
        """
        if isinstance(members, np.ndarray) and members.dtype == bool:
            mask = members
        else:
            mask = np.zeros(self.num_nodes, dtype=bool)
            mask[np.fromiter(members, dtype=np.int64, count=-1)] = True
        return self.boundary_many(mask[np.newaxis])[0]

    def boundary_many(self, member_rows) -> list[set[int]]:
        """``N(U) \\ U`` for a stack of membership masks in one pass.

        ``member_rows`` is a ``(B, num_nodes)`` boolean array (or a sequence
        of per-run masks, e.g. the ``member_mask`` rows a stacked
        ``set_builder_many`` run produces); row ``b`` of the result is the
        boundary of the ``b``-th set.

        The boundary lies in ``V \\ U``, so only the rows of the nodes outside
        ``U`` are read: an outside node is a boundary node iff one of its
        neighbours is a member.  After a diagnosis ``V \\ U`` is the fault
        set, so a mask costs ``O(n + |V \\ U|·Δ)`` rather than a gather over
        every edge.
        """
        member_rows = np.asarray(member_rows, dtype=bool)
        if member_rows.ndim != 2 or member_rows.shape[1] != self.num_nodes:
            raise ValueError(
                f"expected a (B, {self.num_nodes}) boolean stack, "
                f"got shape {member_rows.shape}"
            )
        n = self.num_nodes
        flat = member_rows.ravel()
        outside = np.flatnonzero(~flat)  # flat keys b·n + v, ascending
        nodes = outside % n
        addr, counts = self.row_addresses(nodes)
        segment = np.repeat(np.arange(outside.size), counts)
        hit = flat[(outside - nodes)[segment] + self.indices[addr]]
        # A scoreboard rather than np.unique: numpy 2's first np.unique call
        # imports numpy.ma, ~40 ms on every fresh server or pool worker.
        adjacent = np.zeros(outside.size, dtype=bool)
        adjacent[segment[hit]] = True
        keys = outside[adjacent]
        bounds = np.searchsorted(keys, np.arange(len(member_rows) + 1) * n).tolist()
        ids = (keys % n).tolist()
        return [set(ids[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CSRAdjacency(N={self.num_nodes}, entries={self.num_entries}, "
            f"pairs={self.num_pairs})"
        )


def compile_network(network) -> CSRAdjacency:
    """Compile (once) and return the CSR adjacency of a network.

    The compiled form is cached on the network instance, so every layer that
    calls ``compile_network`` on the same object — the core algorithms, the
    experiment runners, the distributed simulator, the baselines — shares a
    single set of arrays.  Passing an existing :class:`CSRAdjacency` returns
    it unchanged, letting callers accept either representation.
    """
    if isinstance(network, CSRAdjacency):
        return network
    cached = getattr(network, "_csr_adjacency", None)
    if cached is None:
        cached = CSRAdjacency.from_network(network)
        network._csr_adjacency = cached
    return cached
