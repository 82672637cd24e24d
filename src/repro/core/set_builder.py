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
(:func:`repro.backend.csr.compile_network`, memoized per instance) and has
two transcriptions of §4.1:

* the **rows oracle** (:func:`_set_builder_oracle`), the readable
  reference: it takes adjacency from the compiled sorted rows and reads
  results through the abstract :class:`Syndrome` oracle.  It runs every
  restricted, budgeted or certificate-stopping call of :func:`set_builder`
  and every run over a syndrome the kernel cannot read;
* the **native run** in ``_stacked.c``, which reads an ``ArraySyndrome``'s
  buffer, or a seeded syndrome's fault mask and side table, in place.  Its
  two entries call it, each allocating and freeing its own scratch:
  :func:`run_probe_plan` runs a diagnoser's whole :class:`ProbePlan` in one
  call, and :func:`set_builder_many` runs a stack's final runs in one call
  — every unrestricted, unbudgeted :func:`set_builder` run is a width-one
  stack.  Without a C compiler both fall back to the rows oracle.

:func:`kernel_reads` is the one test of whether the kernel can read a
syndrome; it refuses a syndrome laid out over another topology.  Both
transcriptions produce identical results and identical lookup counts,
truncated runs included, and the ``all_healthy`` certificate is sound on
both.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# The module, not the class: this import runs while backend.array_syndrome
# may still be importing core (its first import closes the cycle), and the
# class is read on use.
from ..backend import array_syndrome as _array_syndrome
from ..backend.csr import compile_network
from ..networks.base import InterconnectionNetwork
from .native import (
    SyndromeView,
    address,
    check,
    load_kernel,
    topology_args,
)
from .syndrome import Syndrome

__all__ = [
    "BuiltOnFirstRead",
    "ProbePlan",
    "SetBuilderResult",
    "kernel_reads",
    "run_probe_plan",
    "set_builder",
    "set_builder_many",
    "certificate_node_budget",
]

class BuiltOnFirstRead:
    """A dataclass field that, left at its default ``None``, is made by
    ``build(result)`` on first read and cached; ``==`` and ``repr`` read it."""

    def __init__(self, build: Callable) -> None:
        self.build = build

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the dataclass default
        value = result.__dict__.get(self.name)
        if value is None:
            value = result.__dict__[self.name] = self.build(result)
        return value

    def __set__(self, result, value) -> None:
        result.__dict__[self.name] = value


def _tree(result: "SetBuilderResult") -> dict[int, int]:
    child = np.flatnonzero(result.parent_row >= 0)  # -1: the root, or no member
    return dict(zip(child.tolist(), result.parent_row[child].tolist()))


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

    A :func:`set_builder_many` result holds its pass's ``member_mask`` and
    ``parent_row`` (``t(v)`` per node, -1 off the tree) and builds
    ``nodes``, ``parent`` and ``contributors`` from them on first read.
    """

    root: int
    all_healthy: bool
    nodes: set[int] = BuiltOnFirstRead(lambda r: set(np.flatnonzero(r.member_mask).tolist()))
    parent: dict[int, int] = BuiltOnFirstRead(_tree)
    # A set, not np.unique: numpy 2's first np.unique call imports
    # numpy.ma (~40 ms), which a process's first read would pay.
    contributors: set[int] = BuiltOnFirstRead(lambda r: set(r.parent.values()))
    rounds: int = 0
    lookups: int = 0
    truncated: bool = False
    member_mask: np.ndarray | None = field(default=None, compare=False, repr=False)
    parent_row: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        """``|U_r|``, counted on the mask while ``nodes`` is unbuilt."""
        nodes = self.__dict__.get("nodes")
        return int(np.count_nonzero(self.member_mask)) if nodes is None else len(nodes)

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
) -> SetBuilderResult:
    """Run ``Set_Builder(u0)`` (or ``Set_Builder(u0, H)`` when ``restrict`` is given).

    Parameters
    ----------
    network:
        The interconnection network ``G``.
    syndrome:
        The syndrome oracle ``s``; one laid out over another topology
        raises ``ValueError`` (:func:`kernel_reads`).
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
    """
    if diagnosability is None:
        diagnosability = network.diagnosability()
    if not 0 <= u0 < network.num_nodes:
        raise ValueError(f"start node {u0} is not a node of the network")
    if restrict is not None and not restrict(u0):
        raise ValueError("the start node u0 must belong to the restricted subgraph H")

    if restrict is None and max_nodes is None and not stop_on_certificate:
        return set_builder_many(
            network, [syndrome], [u0], diagnosability=diagnosability,
        )[0]
    csr = compile_network(network)
    kernel_reads(csr, syndrome)  # refuses a syndrome of another layout
    return _set_builder_oracle(
        csr.rows, syndrome, u0, diagnosability, restrict, max_nodes,
        stop_on_certificate,
    )


def kernel_reads(csr, syndrome: Syndrome) -> bool:
    """Whether the native kernel can read ``syndrome`` over the compiled
    topology ``csr``: true for an
    :class:`~repro.backend.array_syndrome.ArraySyndrome` laid out over
    ``csr`` (the same object, or equal ``indptr`` and ``indices``), false
    for any other :class:`Syndrome`, which the rows oracle reads.

    An ``ArraySyndrome`` laid out over another topology raises
    ``ValueError``: its slots answer other tests, so no path may read it.
    """
    if not isinstance(syndrome, _array_syndrome.ArraySyndrome):
        return False
    layout = syndrome.csr
    if layout is csr or (
        np.array_equal(layout.indptr, csr.indptr)
        and np.array_equal(layout.indices, csr.indices)
    ):
        return True
    raise ValueError(
        f"the syndrome is laid out over {layout!r}, not over this network's "
        f"compiled topology {csr!r}"
    )


def _set_builder_oracle(
    rows: Sequence[Sequence[int]],
    syndrome: Syndrome,
    u0: int,
    diagnosability: int,
    restrict: Callable[[int], bool] | None,
    max_nodes: int | None,
    stop_on_certificate: bool,
) -> SetBuilderResult:
    """The procedure against an abstract syndrome oracle, with adjacency
    from the compiled topology's sorted ``rows``."""
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
    # admits both members of the pair.  Rows are sorted, so pairs come in
    # the canonical order.
    neighbors0 = [v for v in rows[u0] if restrict is None or restrict(v)]
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
            for v in rows[u]:
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


class ProbePlan:
    """A root-search probe plan as ``probe_plan`` in ``_stacked.c`` reads it.

    ``starts`` lists every probe's start node in plan order.  ``levels`` is
    one ``(end, table, budget)`` row per level: the level runs the probes
    up to ``starts[end]``, its probe ``k`` admits only the nodes ``v`` with
    ``tables[table][v] == k`` (every node when ``table`` is -1), under a
    ``budget``-node limit (none when negative).  ``tables`` holds ``n``
    ``int32`` entries per table.  The arrays are converted (a lossy cast
    raises ``TypeError``) and checked once here; the kernel checks the
    plan's consistency before it probes.
    """

    __slots__ = ("num_probes", "_arrays", "_starts", "_levels")

    def __init__(self, n: int, starts, levels, tables=None) -> None:
        def array(values, dtype):
            values = np.asarray(values)
            if values.size:  # an empty list reads as float64
                values = values.astype(dtype, casting="safe")
            return np.ascontiguousarray(values, dtype=dtype)

        starts = array(starts, np.int64)
        levels = array(levels, np.int64).reshape(-1, 3)
        tables = array(np.empty(0, np.int32) if tables is None else tables, np.int32)
        self.num_probes = starts.size
        self._arrays = (starts, levels, tables)  # alive while their addresses are
        self._starts = (address(starts, np.int64, starts.size), starts.size)
        self._levels = (
            address(levels, np.int64, levels.size), len(levels),
            address(tables, np.int32, tables.size), tables.size // n,
        )


def run_probe_plan(
    csr,
    syndrome: _array_syndrome.ArraySyndrome,
    plan: ProbePlan,
    delta: int,
    first: int = 0,
) -> np.ndarray:
    """Run ``plan``'s probes from ``first`` on over the compiled topology
    ``csr``, in one native ``probe_plan`` call, until one certifies or the
    plan ends.

    ``syndrome`` must be one :func:`kernel_reads` accepts over ``csr``, and
    the native library must be loaded.  The kernel reads the syndrome
    through its
    :meth:`~repro.backend.array_syndrome.ArraySyndrome.native_view`, so a
    seeded syndrome's buffer is never built, and allocates and frees its
    own scratch, so concurrent calls share nothing.  Returns one
    ``(nodes_explored, lookups, certified, truncated, rounds)`` row per
    probe run and credits the consulted entries to ``syndrome.lookups``.  A
    start outside the network or its class raises ``ValueError``; a
    mask-mode syndrome whose side table lacks a faulty tester's row, or a
    tester whose row lacks its tree parent, raises ``RuntimeError``.
    """
    records = np.empty((plan.num_probes, 5), dtype=np.int64)
    ran = check(load_kernel("probe_plan")(
        *topology_args(csr),
        ctypes.byref(syndrome.native_view()),
        csr.num_nodes, delta,
        *plan._starts, first, *plan._levels,
        records.ctypes.data,
    ), "probe_plan")
    records = records[first:ran]
    syndrome.lookups += int(records[:, 1].sum())
    return records


def _oracle_final(csr, syndrome, u0, diagnosability):
    """One :func:`set_builder_many` item on the rows oracle: the same run,
    plus the ``member_mask`` the kernel's results carry.  The oracle
    credits ``syndrome.lookups`` itself."""
    result = _set_builder_oracle(
        csr.rows, syndrome, u0, diagnosability, None, None, False,
    )
    result.member_mask = np.zeros(csr.num_nodes, dtype=bool)
    result.member_mask[list(result.nodes)] = True
    return result


def set_builder_many(
    network: InterconnectionNetwork,
    syndromes: Sequence[Syndrome],
    roots: Sequence[int],
    *,
    diagnosability: int | None = None,
) -> list[SetBuilderResult]:
    """Run unrestricted ``Set_Builder`` for a whole stack of syndromes at once.

    One compiled topology, ``B`` syndromes, ``B`` start nodes, one native
    call: ``stacked_rounds`` runs each syndrome's procedure in turn, from
    its root's pair scan to the fixpoint, with the transcription the
    root-search probes use, over one node-sized scratch that serves the
    whole stack.  Each syndrome's set and tree land in its row of a
    ``(B, n)`` membership array and a ``(B, n)`` ``int32`` parent array.  A
    width-one stack is how :func:`set_builder` runs every unrestricted,
    unbudgeted run.  Without the native library, or when the kernel cannot
    read every syndrome of the stack (:func:`kernel_reads`), each syndrome
    runs on the rows oracle instead, one after another; a syndrome laid
    out over another topology raises ``ValueError``.

    Results are **bit-identical** per syndrome to the rows oracle,
    ``set_builder(network, syndrome.to_table(), root)`` (grown set, parents,
    contributors, rounds, the certificate, and the consulted-entry count —
    which is also credited to each syndrome's ``lookups`` counter), pinned
    by the differential suite.  Only unrestricted, unbudgeted runs are
    supported — the final network-sized run of the diagnosis algorithm.
    Every result carries its ``member_mask``.

    A native result builds its ``nodes`` / ``parent`` / ``contributors``
    only when first read: they cost several times the pass, and serving
    reads just the ``member_mask`` (for the boundary) and the counters.
    """
    if len(syndromes) != len(roots):
        raise ValueError("need exactly one start node per syndrome")
    num_syndromes = len(syndromes)
    if num_syndromes == 0:
        return []
    csr = compile_network(network)
    if diagnosability is None:
        diagnosability = network.diagnosability()
    readable = [kernel_reads(csr, syndrome) for syndrome in syndromes]
    n = csr.num_nodes
    for u0 in roots:
        if not 0 <= u0 < n:
            raise ValueError(f"start node {u0} is not a node of the network")

    native = load_kernel("stacked_rounds")
    if native is None or not all(readable):
        return [
            _oracle_final(csr, syndrome, int(u0), diagnosability)
            for syndrome, u0 in zip(syndromes, roots)
        ]

    member = np.zeros((num_syndromes, n), dtype=bool)
    parent = np.full((num_syndromes, n), -1, dtype=np.int32)
    #: one ``(nodes_explored, lookups, certified, truncated, rounds)`` row
    #: per syndrome, as a probe record
    records = np.empty((num_syndromes, 5), dtype=np.int64)
    root_ids = np.asarray(roots, dtype=np.int64)
    views = (SyndromeView * num_syndromes)(
        *(syndrome.native_view() for syndrome in syndromes)
    )
    check(native(
        *topology_args(csr),
        views,
        n, num_syndromes, diagnosability,
        address(root_ids, np.int64, num_syndromes),
        address(member.view(np.uint8), np.uint8, member.size),
        address(parent, np.int32, parent.size),
        address(records, np.int64, records.size),
    ), "stacked_rounds")

    results: list[SetBuilderResult] = []
    for b, syndrome in enumerate(syndromes):
        _, lookups, certified, _, rounds = records[b].tolist()
        syndrome.lookups += lookups
        results.append(
            SetBuilderResult(
                root=int(roots[b]),
                all_healthy=bool(certified),
                rounds=rounds,
                lookups=lookups,
                member_mask=member[b],
                parent_row=parent[b],
            )
        )
    return results
