"""The ``Set_Builder`` procedure (paper Section 4.1).

``Set_Builder(u0)`` grows a set ``U_r`` of nodes from a start node ``u0`` by
repeatedly adding neighbours whose comparison test against the parent of the
tester returned 0:

* ``U_0 = {u0}``;
* ``U_1 = {u0} ∪ {v : (u0, v) ∈ E and ∃ w ≠ v, (u0, w) ∈ E, s_{u0}(v, w) = 0}``
  with ``t(v) = u0`` for the added nodes;
* for ``i ≥ 2``,
  ``U_i = U_{i-1} ∪ {v ∉ U_{i-1} : (u, v) ∈ E for some u ∈ U_{i-1} \\ U_{i-2}
  with s_u(v, t(u)) = 0}``, where ``t(v)`` is the *least* such ``u`` in the
  fixed node ordering.

The function ``t`` describes a tree ``T`` rooted at ``u0``.  The nodes that
appear as some ``t(v)`` are the *contributors* (the internal nodes of ``T``)
and they are either all healthy or all faulty; therefore as soon as more than
``δ`` (the diagnosability, an upper bound on the number of faults) distinct
contributors have been seen, every node of ``U_r`` is certifiably healthy
(``all_healthy``).

This module implements the procedure verbatim, plus two practical controls the
surrounding driver uses: an optional membership restriction (the paper's
``Set_Builder(u0, H)``), an optional node budget, and optional early exit once
the certificate fires.

Execution backends
------------------
The procedure compiles the topology on entry
(:func:`repro.backend.csr.compile_network`, memoized per instance) and then
selects the fastest applicable implementation:

* an **array** path when the syndrome is an
  :class:`~repro.backend.array_syndrome.ArraySyndrome` over the same compiled
  topology — neighbour rows and test results are flat arrays, membership is a
  byte mask, and each lookup is pure integer arithmetic;
* a **rows** path for any other :class:`Syndrome` — adjacency comes from the
  compiled rows (no per-call list building) while results go through the
  abstract oracle;
* the original **object** path (``compiled=False``) that consults
  ``network.neighbors`` per call — kept as the reference implementation the
  property tests and the backend benchmark compare against.

All paths implement the same procedure and produce identical results (and
identical lookup counts) on non-truncated runs; under a ``max_nodes`` budget
the identity of the truncated frontier may differ between paths because the
object path visits neighbours in topology order while the compiled paths use
sorted rows.  The ``all_healthy`` certificate is sound on every path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..backend.csr import compile_network
from ..networks.base import InterconnectionNetwork
from .native import address, load_probe_kernel, load_stacked_kernel
from .syndrome import Syndrome

if TYPE_CHECKING:  # pragma: no cover - the runtime import is deferred (cycle)
    from ..backend.array_syndrome import ArraySyndrome

__all__ = [
    "ProbeScratch",
    "SetBuilderResult",
    "set_builder",
    "set_builder_many",
    "certificate_node_budget",
]

#: Scratch bound of one stacked pass: the native kernel allocates
#: ``_STACK_BYTES_PER_KEY`` per flat ``syndrome * n + node`` key (its frontier
#: and admission buffers), so wider stacks run in width slices below this.
_STACK_SCRATCH_BYTES = 256 << 20
_STACK_BYTES_PER_KEY = 24


@dataclass
class SetBuilderResult:
    """Outcome of one ``Set_Builder`` run.

    Attributes
    ----------
    root:
        The start node ``u0``.
    all_healthy:
        True iff the contributor certificate fired (more than ``δ`` distinct
        contributors), proving every node of ``nodes`` healthy.
    nodes:
        The grown set ``U_r``.
    parent:
        The tree function ``t``: ``parent[v]`` is the parent of ``v`` in the
        tree ``T`` (the root has no entry).
    contributors:
        The internal nodes of ``T`` (the union of the ``C_i``).
    rounds:
        Number of iterations of the while-loop (the final ``r``).
    lookups:
        Syndrome entries consulted by this run.
    truncated:
        True iff the run stopped because of the node budget or the
        early-certificate exit rather than reaching the fixpoint
        ``U_r = U_{r+1}``.
    """

    root: int
    all_healthy: bool
    nodes: set[int]
    parent: dict[int, int]
    contributors: set[int]
    rounds: int
    lookups: int
    truncated: bool = False
    #: boolean membership mask over all nodes (only set by the vectorised
    #: path; lets the driver compute the boundary without rebuilding a mask)
    member_mask: object = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def tree_edges(self) -> list[tuple[int, int]]:
        """Edges ``(t(v), v)`` of the tree ``T`` (the paper's healthy spanning tree)."""
        return [(p, v) for v, p in self.parent.items()]

    def depth_of(self, v: int) -> int:
        """Depth of ``v`` in ``T`` (root has depth 0)."""
        depth = 0
        while v in self.parent:
            v = self.parent[v]
            depth += 1
        return depth


def certificate_node_budget(diagnosability: int, max_degree: int) -> int:
    """Node budget guaranteeing the certificate fires for a healthy root.

    In the tree ``T`` every internal node has at most ``Δ`` children, so a
    tree with more than ``δ·Δ + 1`` nodes necessarily has more than ``δ``
    internal nodes.  Exploring that many nodes from a healthy root therefore
    always produces the ``all_healthy`` certificate (provided the healthy
    component is at least that large); the probing fallback of the diagnosis
    driver uses this budget to keep each probe cheap.
    """
    return diagnosability * max_degree + 2


def set_builder(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    u0: int,
    *,
    diagnosability: int | None = None,
    restrict: Callable[[int], bool] | None = None,
    max_nodes: int | None = None,
    stop_on_certificate: bool = False,
    compiled: bool = True,
) -> SetBuilderResult:
    """Run ``Set_Builder(u0)`` (or ``Set_Builder(u0, H)`` when ``restrict`` is given).

    Parameters
    ----------
    network:
        The interconnection network ``G``.
    syndrome:
        The syndrome oracle ``s``.
    u0:
        The start node.
    diagnosability:
        The bound ``δ`` on the number of faults; defaults to
        ``network.diagnosability()``.
    restrict:
        Optional membership predicate defining the subgraph ``H``; only nodes
        satisfying it are ever added (``u0`` must satisfy it).
    max_nodes:
        Optional budget on ``|U_r|``; growth stops once reached (the result is
        then marked ``truncated`` and carries no completeness guarantee, but
        the ``all_healthy`` certificate remains sound).
    stop_on_certificate:
        If True, growth stops as soon as the certificate fires.
    compiled:
        If True (default), compile the topology to the flat-array backend on
        entry and take the fastest applicable path; if False, run the original
        object-based reference implementation.
    """
    if diagnosability is None:
        diagnosability = network.diagnosability()
    if restrict is not None and not restrict(u0):
        raise ValueError("the start node u0 must belong to the restricted subgraph H")
    if not 0 <= u0 < network.num_nodes:
        raise ValueError(f"start node {u0} is not a node of the network")

    if compiled:
        # Deferred import: backend.array_syndrome builds on core.syndrome, so a
        # module-level import here would close a cycle through the package
        # __init__ chain.  After the first call this is a sys.modules hit.
        from ..backend.array_syndrome import ArraySyndrome

        csr = compile_network(network)
        if isinstance(syndrome, ArraySyndrome) and syndrome.csr is csr:
            if restrict is None and max_nodes is None:
                return _set_builder_array_vectorized(
                    csr, syndrome, u0, diagnosability, stop_on_certificate,
                )
            return _set_builder_array(
                csr, syndrome, u0, diagnosability, restrict, max_nodes,
                stop_on_certificate,
            )
        rows = csr.rows
        neighbors_of: Callable[[int], Sequence[int]] = rows.__getitem__
    else:
        neighbors_of = network.neighbors
    return _set_builder_oracle(
        neighbors_of, syndrome, u0, diagnosability, restrict, max_nodes,
        stop_on_certificate,
    )


def _set_builder_oracle(
    neighbors_of: Callable[[int], Sequence[int]],
    syndrome: Syndrome,
    u0: int,
    diagnosability: int,
    restrict: Callable[[int], bool] | None,
    max_nodes: int | None,
    stop_on_certificate: bool,
) -> SetBuilderResult:
    """The procedure against an abstract syndrome oracle.

    ``neighbors_of`` is either ``network.neighbors`` (the object path) or the
    compiled CSR rows (no per-call adjacency building).
    """
    lookups_before = syndrome.lookups
    nodes: set[int] = {u0}
    parent: dict[int, int] = {}
    contributors: set[int] = set()
    all_healthy = False
    truncated = False

    def budget_reached() -> bool:
        return max_nodes is not None and len(nodes) >= max_nodes

    # ---------------------------------------------------------------- round 1
    # U_1: scan the unordered pairs of u0's neighbours (at most Δ(Δ-1)/2
    # syndrome lookups, matching the accounting of Section 6); a 0-result
    # admits both members of the pair.
    neighbors0 = sorted(v for v in neighbors_of(u0) if restrict is None or restrict(v))
    added_set: set[int] = set()
    for i, v in enumerate(neighbors0):
        if budget_reached():
            truncated = True
            break
        for w in neighbors0[i + 1 :]:
            if v in added_set and w in added_set:
                continue
            if syndrome.lookup(u0, v, w) == 0:
                for node in (v, w):
                    if node not in added_set and not budget_reached():
                        added_set.add(node)
                        parent[node] = u0
    nodes.update(added_set)
    rounds = 1 if added_set else 0
    if added_set:
        contributors.add(u0)
    if len(contributors) > diagnosability:
        all_healthy = True

    frontier = sorted(added_set)

    # ------------------------------------------------------------ rounds >= 2
    while frontier:
        if all_healthy and stop_on_certificate:
            truncated = True
            break
        if budget_reached():
            truncated = True
            break
        new_nodes: list[int] = []
        new_set: set[int] = set()
        for u in frontier:  # already sorted: guarantees t(v) is the least contributor
            t_u = parent.get(u, u0)
            for v in neighbors_of(u):
                if v in nodes or v in new_set:
                    continue
                if restrict is not None and not restrict(v):
                    continue
                if budget_reached() or (max_nodes is not None and
                                        len(nodes) + len(new_set) >= max_nodes):
                    truncated = True
                    break
                if syndrome.lookup(u, v, t_u) == 0:
                    new_set.add(v)
                    new_nodes.append(v)
                    parent[v] = u
                    contributors.add(u)
            if truncated:
                break
        if not new_nodes:
            break
        nodes.update(new_set)
        rounds += 1
        if len(contributors) > diagnosability:
            all_healthy = True
        frontier = sorted(new_set)
        if truncated:
            break

    return SetBuilderResult(
        root=u0,
        all_healthy=all_healthy,
        nodes=nodes,
        parent=parent,
        contributors=contributors,
        rounds=rounds,
        lookups=syndrome.lookups - lookups_before,
        truncated=truncated,
    )


def _set_builder_array(
    csr,
    syndrome: ArraySyndrome,
    u0: int,
    diagnosability: int,
    restrict: Callable[[int], bool] | None,
    max_nodes: int | None,
    stop_on_certificate: bool,
) -> SetBuilderResult:
    """Flat-array hot path: byte-mask membership, O(1) pair-indexed lookups.

    Mirrors :func:`_set_builder_oracle` statement for statement; the only
    representational differences are the byte mask standing in for the
    ``nodes`` set and direct buffer reads standing in for ``syndrome.lookup``
    (the consulted-entry count is accumulated locally and credited to the
    syndrome's counter on exit).
    """
    rows = csr.rows
    pair_base = csr.pair_base
    buf = syndrome.buffer
    lookups = 0

    in_tree = bytearray(csr.num_nodes)
    in_tree[u0] = 1
    tree_count = 1
    tree_nodes: list[int] = [u0]
    parent: dict[int, int] = {}
    contributors: set[int] = set()
    all_healthy = False
    truncated = False

    # ---------------------------------------------------------------- round 1
    row0 = rows[u0]
    d0 = len(row0)
    base0 = pair_base[u0]
    if restrict is None:
        candidates = list(enumerate(row0))
    else:
        candidates = [(i, v) for i, v in enumerate(row0) if restrict(v)]
    in_added = bytearray(csr.num_nodes)
    added: list[int] = []
    for a, (i, v) in enumerate(candidates):
        if max_nodes is not None and tree_count >= max_nodes:
            truncated = True
            break
        for j, w in candidates[a + 1 :]:
            if in_added[v] and in_added[w]:
                continue
            lookups += 1
            if buf[base0 + i * (2 * d0 - i - 1) // 2 + (j - i - 1)] == 0:
                for node in (v, w):
                    if not in_added[node] and not (
                        max_nodes is not None and tree_count >= max_nodes
                    ):
                        in_added[node] = 1
                        added.append(node)
                        parent[node] = u0
    for node in added:
        in_tree[node] = 1
    tree_count += len(added)
    tree_nodes.extend(added)
    rounds = 1 if added else 0
    if added:
        contributors.add(u0)
    if len(contributors) > diagnosability:
        all_healthy = True

    frontier = sorted(added)

    # ------------------------------------------------------------ rounds >= 2
    while frontier:
        if all_healthy and stop_on_certificate:
            truncated = True
            break
        if max_nodes is not None and tree_count >= max_nodes:
            truncated = True
            break
        new_nodes: list[int] = []
        in_new = bytearray(csr.num_nodes)
        new_count = 0
        for u in frontier:  # already sorted: guarantees t(v) is the least contributor
            row = rows[u]
            d = len(row)
            t_u = parent.get(u, u0)
            pos_t = bisect_left(row, t_u)
            base = pair_base[u]
            for pos, v in enumerate(row):
                if in_tree[v] or in_new[v]:
                    continue
                if restrict is not None and not restrict(v):
                    continue
                if max_nodes is not None and tree_count + new_count >= max_nodes:
                    truncated = True
                    break
                if pos < pos_t:
                    i, j = pos, pos_t
                else:
                    i, j = pos_t, pos
                lookups += 1
                if buf[base + i * (2 * d - i - 1) // 2 + (j - i - 1)] == 0:
                    in_new[v] = 1
                    new_count += 1
                    new_nodes.append(v)
                    parent[v] = u
                    contributors.add(u)
            if truncated:
                break
        if not new_nodes:
            break
        for node in new_nodes:
            in_tree[node] = 1
        tree_count += new_count
        tree_nodes.extend(new_nodes)
        rounds += 1
        if len(contributors) > diagnosability:
            all_healthy = True
        new_nodes.sort()
        frontier = new_nodes
        if truncated:
            break

    syndrome.lookups += lookups
    return SetBuilderResult(
        root=u0,
        all_healthy=all_healthy,
        nodes=set(tree_nodes),
        parent=parent,
        contributors=contributors,
        rounds=rounds,
        lookups=lookups,
        truncated=truncated,
    )


class ProbeScratch:
    """Caller-owned scratch of the native root-search probes on one topology.

    ``probe_level`` in ``_stacked.c`` runs :func:`_set_builder_array` probes
    without allocating: it borrows a zeroed node mask (each probe clears
    exactly the nodes it touched, so the mask is zero again between calls)
    and two node-sized work arrays.  One instance serves any number of
    consecutive calls on one thread; concurrent callers each need their own.
    :meth:`create` returns ``None`` when the native library is unavailable,
    and the scalar path then stays the probe path.
    """

    __slots__ = (
        "csr", "_kernel", "_mark", "_parent", "_tree", "_topology", "_scratch",
    )

    def __init__(self, csr, kernel) -> None:
        n = csr.num_nodes
        self.csr = csr
        self._kernel = kernel
        self._mark = np.zeros(n, dtype=np.uint8)
        self._parent = np.empty(n, dtype=np.int32)
        self._tree = np.empty(n, dtype=np.int32)
        self._topology = (
            address(csr.indptr, np.int64, n + 1),
            address(csr.indices, np.int32, csr.num_entries),
            address(csr.pair_indptr, np.int64, n + 1),
        )
        self._scratch = (
            address(self._mark, np.uint8, n),
            address(self._parent, np.int32, n),
            address(self._tree, np.int32, n),
        )

    @classmethod
    def create(cls, csr) -> "ProbeScratch | None":
        kernel = load_probe_kernel()
        return None if kernel is None else cls(csr, kernel)

    def run(
        self,
        syndrome: ArraySyndrome,
        starts: np.ndarray,
        diagnosability: int,
        *,
        class_of: np.ndarray | None = None,
        max_nodes: int | None = None,
    ) -> np.ndarray:
        """Probe from each of ``starts`` in order until one certifies.

        Probe ``k`` is ``_set_builder_array(csr, syndrome, starts[k], ...)``
        with ``stop_on_certificate`` set, restricted to the nodes ``v`` with
        ``class_of[v] == k`` (unrestricted when ``class_of`` is ``None``),
        under the ``max_nodes`` budget.
        Returns one ``(nodes_explored, lookups, certified, truncated,
        rounds)`` row per probe run — every probe up to and including the
        first certified one — and credits the consulted entries to
        ``syndrome.lookups``.
        """
        csr = self.csr
        n = csr.num_nodes
        count = len(starts)
        records = np.empty((count, 5), dtype=np.int64)
        ran = self._kernel(
            *self._topology,
            address(syndrome.values_array, np.uint8, csr.num_pairs),
            n, diagnosability,
            address(starts, np.int64, count), count,
            None if class_of is None else address(class_of, np.int32, n),
            -1 if max_nodes is None else max_nodes,
            *self._scratch,
            address(records, np.int64, records.size),
        )
        if ran < 0:
            raise ValueError("a probe start node lies outside its class or the network")
        records = records[:ran]
        syndrome.lookups += int(records[:, 1].sum())
        return records


def _expand_root_pairs(
    csr, pbuf, u0: int
) -> tuple[list[int], dict[int, int], int]:
    """Round 1 of the array paths: scan the root's neighbour pairs (scalar).

    Returns ``(added, parent, lookups)`` exactly as the scalar paths produce
    them — Δ(Δ-1)/2 pair reads with the double-admission suppression.  Shared
    by the vectorised path below and by the shard-aware builder
    (:class:`repro.parallel.sharded.ShardedSetBuilder`), whose coordinator
    runs round 1 locally because it is tiny.
    """
    row0 = csr.rows[u0]
    d0 = len(row0)
    base0 = csr.pair_base[u0]
    in_added: set[int] = set()
    added: list[int] = []
    parent: dict[int, int] = {}
    lookups = 0
    for i in range(d0):
        v = row0[i]
        for j in range(i + 1, d0):
            w = row0[j]
            if v in in_added and w in in_added:
                continue
            lookups += 1
            if pbuf[base0 + i * (2 * d0 - i - 1) // 2 + (j - i - 1)] == 0:
                for node in (v, w):
                    if node not in in_added:
                        in_added.add(node)
                        added.append(node)
                        parent[node] = u0
    return added, parent, lookups


def _expand_frontier_segment(
    csr,
    buf: np.ndarray,
    member: np.ndarray,
    frontier: np.ndarray,
    parents: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate occurrences of a frontier slice, in sequential visit order.

    Gathers every ``(tester u, neighbour v)`` pair of the slice in
    (u ascending, row position ascending) order — the order the scalar paths
    visit them in — drops current members, and reads each survivor's test
    ``s_u(v, t(u))`` from the flat buffer.  Pure function of round-start
    state; the vectorised path calls it with the whole frontier, the
    shard-aware builder (:mod:`repro.parallel.sharded`) with per-shard
    slices whose concatenation is the same global order.

    Returns ``(v, u, result)`` arrays in slice-local flat order.
    """
    empty = np.empty(0, dtype=np.int64)
    if frontier.size == 0:
        return empty, empty, np.empty(0, dtype=np.uint8)
    indptr, indices, pair_indptr = csr.indptr, csr.indices, csr.pair_indptr

    counts = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
    total = int(counts.sum())
    row_starts = np.repeat(indptr[frontier], counts)
    seg_ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_ends - counts, counts)
    nbr = indices[row_starts + within].astype(np.int64)
    src = np.repeat(frontier, counts)
    d_el = np.repeat(counts, counts)

    # Position of each tester's parent inside its sorted row (one match per
    # tester, emitted in tester order by construction).
    parent_el = np.repeat(parents, counts)
    pos_t = within[nbr == parent_el]
    pos_t_el = np.repeat(pos_t, counts)

    keep = ~member[nbr]
    v_c = nbr[keep]
    src_c = src[keep]
    i_c = np.minimum(within[keep], pos_t_el[keep])
    j_c = np.maximum(within[keep], pos_t_el[keep])
    d_c = d_el[keep]
    slots = pair_indptr[src_c] + i_c * (2 * d_c - i_c - 1) // 2 + (j_c - i_c - 1)
    return v_c, src_c, buf[slots]


def _merge_frontier_candidates(
    n: int, v_c: np.ndarray, src_c: np.ndarray, val_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sequential admission semantics over flat-order candidate occurrences.

    A node joins at its *first* 0-result occurrence (its tester becomes
    ``t(v)`` — the least contributor, since the flat order ascends by
    tester), and occurrences strictly after the admitting one are discounted
    because the sequential procedure never consults tests of a node that has
    already joined.  The reversed fancy-index assignment keeps the first
    occurrence per node without a sort.

    Returns ``(added nodes ascending, their admitting testers, lookups)``.
    This is the single merge the vectorised path and the cross-shard
    coordinator both use — keeping their lookup accounting identical by
    construction.
    """
    m = len(v_c)
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    idx_m = np.arange(m, dtype=np.int64)
    first0 = np.full(n, m, dtype=np.int64)
    zsel = val_c == 0
    first0[v_c[zsel][::-1]] = idx_m[zsel][::-1]
    lookups = m - int((idx_m > first0[v_c]).sum())
    added_v = np.flatnonzero(first0 < m)
    added_u = src_c[first0[added_v]]
    return added_v, added_u, lookups


def _set_builder_array_vectorized(
    csr,
    syndrome: ArraySyndrome,
    u0: int,
    diagnosability: int,
    stop_on_certificate: bool,
) -> SetBuilderResult:
    """Whole-frontier array path for unrestricted, unbudgeted runs.

    Each round expands the entire frontier with one
    :func:`_expand_frontier_segment` gather and admits through
    :func:`_merge_frontier_candidates`.  The procedure, the tie-breaking
    (``t(v)`` is the least contributor: frontiers ascend and, per added
    node, the first candidate parent in flat order wins) and the
    consulted-entry accounting replicate the scalar paths exactly — a
    candidate stops generating lookups once an earlier tester in the same
    round has already admitted it.
    """
    buf = syndrome.values_array
    lookups = 0

    n = csr.num_nodes
    member = np.zeros(n, dtype=bool)
    member[u0] = True
    parent_np = np.full(n, -1, dtype=np.int64)
    tree_nodes: list[int] = [u0]
    parent: dict[int, int] = {}
    contributors: set[int] = set()
    all_healthy = False
    truncated = False

    # ---------------------------------------------------------------- round 1
    # Δ(Δ-1)/2 pairs of the root's row: scalar (tiny) — identical to the
    # scalar paths.
    added, parent, root_lookups = _expand_root_pairs(csr, syndrome.buffer, u0)
    lookups += root_lookups
    if added:
        added_arr = np.asarray(added, dtype=np.int64)
        member[added_arr] = True
        parent_np[added_arr] = u0
        tree_nodes.extend(added)
        contributors.add(u0)
    rounds = 1 if added else 0
    if len(contributors) > diagnosability:
        all_healthy = True

    frontier = np.asarray(sorted(added), dtype=np.int64)

    # ------------------------------------------------------------ rounds >= 2
    while frontier.size:
        if all_healthy and stop_on_certificate:
            truncated = True
            break
        v_c, src_c, val_c = _expand_frontier_segment(
            csr, buf, member, frontier, parent_np[frontier]
        )
        added_v, added_u, round_lookups = _merge_frontier_candidates(
            n, v_c, src_c, val_c
        )
        lookups += round_lookups
        if added_v.size == 0:
            break
        member[added_v] = True
        parent_np[added_v] = added_u
        parent.update(zip(added_v.tolist(), added_u.tolist()))
        tree_nodes.extend(added_v.tolist())
        contributors.update(added_u.tolist())
        rounds += 1
        if len(contributors) > diagnosability:
            all_healthy = True
        frontier = added_v  # already sorted ascending

    syndrome.lookups += lookups
    return SetBuilderResult(
        root=u0,
        all_healthy=all_healthy,
        nodes=set(tree_nodes),
        parent=parent,
        contributors=contributors,
        rounds=rounds,
        lookups=lookups,
        truncated=truncated,
        member_mask=member,
    )


# --------------------------------------------------------------- stacked kernel
def _stacked_round(csr, n, idx, member_flat, parent_flat, first0, buffers,
                   frontier_keys, lookups):
    """One expansion round over the concatenation of every active frontier.

    The frontier concatenates all still-growing syndromes' round frontiers in
    syndrome-blocked, node-ascending order (flat keys ``syndrome * n + node``),
    so the flat gather order *within* one syndrome's block is exactly the
    order the single-syndrome path visits — which is what keeps first-zero
    admission and lookup discounting bit-identical per syndrome.  First-zero
    admission runs over the flat keys: a key's first 0-result occurrence in
    the global order is also the first in its own syndrome's local order, and
    the comparisons behind the lookup discount never cross syndromes because
    ``first0`` entries only ever point at occurrences of their own key.

    The hot loop is memory-bound, not call-bound, so the layout is built for
    traffic: element arrays use the narrow ``idx`` dtype, the candidate
    subset is carried as *positions* (one ``flatnonzero``, then narrow
    gathers) instead of repeated boolean compressions, per-tester metadata is
    fetched through a segment index rather than repeated out to full element
    width, and the persistent ``first0`` scoreboard is reset per round only
    at the keys it actually touched (never rescanned end to end).

    Mutates ``member_flat``/``parent_flat``/``first0``/``lookups`` in place
    and returns the admitted keys (ascending — directly the next frontier)
    with their admitting testers.
    """
    indices = csr.indices
    empty = np.empty(0, dtype=idx)
    num_syndromes = len(buffers)
    sentinel = np.iinfo(idx).max

    syn_of = frontier_keys // n
    frontier = frontier_keys - syn_of * n
    parents = parent_flat[frontier_keys]
    ip_lo = csr.indptr[frontier]
    counts = csr.indptr[frontier + 1] - ip_lo
    seg_ends = np.cumsum(counts)
    total = int(seg_ends[-1])
    ip_lo = ip_lo.astype(idx)
    counts_n = counts.astype(idx)

    # Flat address into ``indices`` of every (tester, row position) element:
    # one repeat of the per-segment shift plus a single arange, in place.
    addr = np.repeat(ip_lo - (seg_ends - counts).astype(idx), counts)
    addr += np.arange(total, dtype=idx)
    nbr = indices[addr].astype(idx, copy=False)

    # Each tester's sorted row holds its tree parent exactly once; the match
    # positions come out in segment order, giving one parent offset per
    # tester without a per-element companion array.
    pos_t = addr[nbr == np.repeat(parents, counts)] - ip_lo
    if pos_t.shape != frontier.shape:
        raise RuntimeError(
            "stacked round: a frontier tester's tree parent is not in its row"
        )

    key = np.repeat(frontier_keys - frontier, counts)  # syndrome * n
    key += nbr
    keep_pos = np.flatnonzero(~member_flat[key])
    kept = keep_pos.size
    if kept == 0:
        return empty, empty

    # Candidate attributes: per-element values sliced by position, per-tester
    # values through the segment index (narrow gathers, no full-width copies).
    seg_idx = np.repeat(np.arange(frontier.size, dtype=idx), counts)[keep_pos]
    keys_c = key[keep_pos]
    within_c = addr[keep_pos]
    within_c -= ip_lo[seg_idx]
    pos_c = pos_t[seg_idx]
    i_c = np.minimum(within_c, pos_c)
    j_c = np.maximum(within_c, pos_c)
    d_c = counts_n[seg_idx]
    slots = csr.pair_indptr[frontier].astype(idx)[seg_idx]
    slots += i_c * (2 * d_c - i_c - 1) // 2 + (j_c - i_c - 1)

    # Gather each candidate's test result from its own syndrome's buffer.
    # Candidates are syndrome-blocked, so the per-syndrome slices fall out of
    # the block boundaries: frontier-level ends (a searchsorted over the
    # sorted frontier keys) -> element-level ends (prefix sums) -> kept-level
    # ends (a searchsorted over the sorted positions).  B binary searches,
    # never a per-candidate syndrome-id array.
    fb = np.searchsorted(
        frontier_keys, np.arange(1, num_syndromes + 1, dtype=np.int64) * n
    )
    elem_ends = np.concatenate(([0], seg_ends))[fb]
    kb = np.concatenate(([0], np.searchsorted(keep_pos, elem_ends)))
    val_c = np.empty(kept, dtype=np.uint8)
    for b in range(num_syndromes):
        lo, hi = kb[b], kb[b + 1]
        if lo < hi:
            val_c[lo:hi] = buffers[b][slots[lo:hi]]

    # First-zero admission: the reversed assignment leaves each admitted
    # key's *earliest* 0-result position; later occurrences of an admitted
    # key are not consulted (the <= comparison is the lookup discount, and
    # one running sum sliced at the block bounds credits it per syndrome).
    zpos = np.flatnonzero(val_c == 0).astype(idx, copy=False)
    zk = keys_c[zpos]
    first0[zk[::-1]] = zpos[::-1]
    counted = np.arange(kept, dtype=idx) <= first0[keys_c]
    csum = np.concatenate(([0], np.cumsum(counted, dtype=np.int64)))
    lookups += csum[kb[1:]] - csum[kb[:-1]]

    # The admitted set is exactly the keys whose scoreboard entry left the
    # sentinel this round — a linear scan of the (small, cache-resident)
    # scoreboard, already ascending (= syndrome-blocked), instead of a sort
    # over every zero-valued candidate.
    added_keys = np.flatnonzero(first0 != sentinel).astype(idx, copy=False)
    if added_keys.size == 0:
        return empty, empty
    added_u = frontier[seg_idx[first0[added_keys]]]
    first0[added_keys] = sentinel  # reset only the touched keys
    member_flat[added_keys] = True
    parent_flat[added_keys] = added_u
    return added_keys, added_u


def set_builder_many(
    network: InterconnectionNetwork,
    syndromes: Sequence["ArraySyndrome"],
    roots: Sequence[int],
    *,
    diagnosability: int | None = None,
    materialize: bool = True,
) -> list[SetBuilderResult]:
    """Run unrestricted ``Set_Builder`` for a whole stack of syndromes at once.

    One compiled topology, ``B`` syndromes, ``B`` start nodes: every round
    expands the *concatenation* of all still-active per-syndrome frontiers in
    a single array pass (membership and parents live in flattened ``(B, n)``
    arrays keyed by ``syndrome * n + node``).  The batch amortises the
    per-round call overhead *and* runs a leaner per-element pipeline than
    the single-syndrome path (narrow index dtype, position-based candidate
    compression, touched-key scoreboard resets — see :func:`_stacked_round`),
    which is where the serving layer's batch throughput comes from on one
    core.  Syndromes terminate independently — one that adds no nodes in a
    round simply stops contributing candidates while the others keep
    growing.

    Results are **bit-identical** per syndrome to
    :func:`_set_builder_array_vectorized` (grown set, parents, contributors,
    rounds, the certificate, and the consulted-entry count — which is also
    credited to each syndrome's ``lookups`` counter), pinned by the
    differential suite.  Only unrestricted, unbudgeted runs are supported —
    the final network-sized run of the diagnosis algorithm, which is the only
    step worth batching.

    ``materialize=False`` skips building the per-syndrome ``nodes`` /
    ``parent`` / ``contributors`` Python collections (they come back empty);
    ``member_mask``, ``rounds``, ``lookups`` and ``all_healthy`` are always
    exact.  The serving path uses this: it needs only the mask (for the
    boundary) and the counters, and per-syndrome dict/set construction would
    otherwise cap the batch speedup.

    A stack whose native scratch would pass ``_STACK_SCRATCH_BYTES`` runs
    in width slices, one pass each; the results are the same.
    """
    from ..backend.array_syndrome import ArraySyndrome

    if len(syndromes) != len(roots):
        raise ValueError("need exactly one start node per syndrome")
    num_syndromes = len(syndromes)
    if num_syndromes == 0:
        return []
    csr = compile_network(network)
    if diagnosability is None:
        diagnosability = network.diagnosability()
    buffers = []
    for syndrome in syndromes:
        if not isinstance(syndrome, ArraySyndrome) or syndrome.csr is not csr:
            raise ValueError(
                "set_builder_many needs ArraySyndromes over this network's "
                "compiled topology"
            )
        buffers.append(np.ascontiguousarray(syndrome.values_array))
    n = csr.num_nodes
    for u0 in roots:
        if not 0 <= u0 < n:
            raise ValueError(f"start node {u0} is not a node of the network")
    width = max(1, _STACK_SCRATCH_BYTES // (_STACK_BYTES_PER_KEY * n))
    if num_syndromes > width:
        # Stack items are independent: slicing the width changes no result.
        results: list[SetBuilderResult] = []
        for lo in range(0, num_syndromes, width):
            results.extend(set_builder_many(
                network, syndromes[lo:lo + width], roots[lo:lo + width],
                diagnosability=diagnosability, materialize=materialize,
            ))
        return results

    # Narrow index dtype halves the per-round memory traffic; fall back to
    # int64 only when an address space genuinely needs it.
    wide = max(
        num_syndromes * n,
        num_syndromes * csr.num_entries,
        csr.num_pairs,
    ) >= np.iinfo(np.int32).max
    idx = np.int64 if wide else np.int32

    native = load_stacked_kernel()
    member_flat = np.zeros(num_syndromes * n, dtype=bool)
    # The native pass works in int64 throughout; the numpy rounds keep the
    # narrow dtype for memory traffic.
    parent_flat = np.full(
        num_syndromes * n, -1, dtype=np.int64 if native is not None else idx
    )
    rounds = np.zeros(num_syndromes, dtype=np.int64)
    lookups = np.zeros(num_syndromes, dtype=np.int64)
    #: flat ``syndrome * n + tester`` flags of testers already counted as
    #: contributors, plus the running per-syndrome distinct-contributor count
    contributed = np.zeros(num_syndromes * n, dtype=bool)
    contrib_count = np.zeros(num_syndromes, dtype=np.int64)

    # ---------------------------------------------------------------- round 1
    # Per-syndrome scalar root-pair scans (Δ(Δ-1)/2 each — tiny), exactly the
    # single path's round 1; the stacked frontier starts syndrome-blocked.
    frontier_parts: list[np.ndarray] = []
    for b, (syndrome, u0) in enumerate(zip(syndromes, roots)):
        member_flat[b * n + u0] = True
        added, _, root_lookups = _expand_root_pairs(csr, syndrome.buffer, u0)
        lookups[b] += root_lookups
        if added:
            arr = np.asarray(sorted(added), dtype=idx)
            member_flat[b * n + arr] = True
            parent_flat[b * n + arr] = u0
            rounds[b] = 1
            contributed[b * n + u0] = True
            contrib_count[b] = 1
            frontier_parts.append(b * n + arr)
    frontier_keys = (
        np.concatenate(frontier_parts) if frontier_parts
        else np.empty(0, dtype=idx)
    )

    # ------------------------------------------------------------ rounds >= 2
    if native is not None:
        if frontier_keys.size:
            keys = num_syndromes * n
            buf_addrs = np.array(
                [address(b, np.uint8, csr.num_pairs) for b in buffers],
                dtype=np.uintp,
            )
            frontier0 = frontier_keys.astype(np.int64)
            code = native(
                address(csr.indptr, np.int64, n + 1),
                address(csr.indices, np.int32, csr.num_entries),
                address(csr.pair_indptr, np.int64, n + 1),
                buf_addrs.ctypes.data,
                n, num_syndromes,
                address(frontier0, np.int64, frontier0.size), frontier0.size,
                address(member_flat.view(np.uint8), np.uint8, keys),
                address(parent_flat, np.int64, keys),
                address(lookups, np.int64, num_syndromes),
                address(rounds, np.int64, num_syndromes),
                address(contributed.view(np.uint8), np.uint8, keys),
                address(contrib_count, np.int64, num_syndromes),
            )
            if code != 0:
                raise RuntimeError(
                    f"native stacked kernel failed with code {code}"
                )
    else:
        #: persistent first-zero scoreboard over flat keys; sentinel
        #: everywhere except the keys a round is currently admitting
        first0 = np.full(num_syndromes * n, np.iinfo(idx).max, dtype=idx)
        while frontier_keys.size:
            added_keys, added_u = _stacked_round(
                csr, n, idx, member_flat, parent_flat, first0, buffers,
                frontier_keys, lookups,
            )
            if added_keys.size == 0:
                break
            syn_added = added_keys // n
            rounds += np.bincount(syn_added, minlength=num_syndromes) > 0
            fresh = np.unique(syn_added * n + added_u)
            fresh = fresh[~contributed[fresh]]
            contributed[fresh] = True
            contrib_count += np.bincount(fresh // n, minlength=num_syndromes)
            frontier_keys = added_keys  # sorted: blocked, nodes ascending

    # ----------------------------------------------------------------- results
    member2d = member_flat.reshape(num_syndromes, n)
    parent2d = parent_flat.reshape(num_syndromes, n)
    results: list[SetBuilderResult] = []
    for b, syndrome in enumerate(syndromes):
        if materialize:
            owned = np.flatnonzero(member2d[b])
            child = owned[parent2d[b][owned] >= 0]
            parent_of = parent2d[b][child]
            nodes = set(owned.tolist())
            parent = dict(zip(child.tolist(), parent_of.tolist()))
            contributors = (
                set(np.unique(parent_of).tolist()) if child.size else set()
            )
        else:
            nodes, parent, contributors = set(), {}, set()
        syndrome.lookups += int(lookups[b])
        results.append(
            SetBuilderResult(
                root=int(roots[b]),
                all_healthy=bool(contrib_count[b] > diagnosability),
                nodes=nodes,
                parent=parent,
                contributors=contributors,
                rounds=int(rounds[b]),
                lookups=int(lookups[b]),
                truncated=False,
                member_mask=member2d[b],
            )
        )
    return results
