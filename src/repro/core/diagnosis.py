"""The general fault-diagnosis algorithm (paper Section 4, Theorem 1).

Given a network ``G`` with diagnosability ``δ`` and connectivity ``κ ≥ δ``,
and a syndrome produced by a fault set ``F`` with ``|F| ≤ δ``, the algorithm

1. finds a start node ``u0`` that is *certifiably* healthy, by running the
   restricted ``Set_Builder`` on the representatives of a partition of ``G``
   into many node-disjoint connected classes (paper Section 5: sub-cubes,
   sub-stars, ...) — since the classes outnumber the faults, some probed
   class is fault-free and its run reaches the contributor certificate;
2. runs the unrestricted ``Set_Builder(u0)``; the grown set ``U_r`` consists
   of healthy nodes only, and
3. outputs the neighbourhood ``N = N(U_r) \\ U_r``, which Theorem 1 shows is
   exactly the fault set ``F``.

The driver follows the paper but adds two robustness refinements that the
paper glosses over:

* if no representative of the level-0 partition certifies (possible when the
  smallest admissible classes are too small for the contributor certificate),
  the driver *escalates* to coarser partitions;
* if no partition level certifies — or the family provides no useful
  partition at all — the driver falls back to probing ``δ + 1`` arbitrary
  distinct nodes with a budgeted unrestricted ``Set_Builder``; at least one
  probe starts at a healthy node and the budget of
  :func:`~repro.core.set_builder.certificate_node_budget` guarantees the
  certificate fires whenever the surrounding healthy component is large
  enough.

Both refinements only ever *accept* runs whose certificate fired, so they
cannot compromise soundness; they extend the range of instances the driver
completes on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from typing import Sequence

import numpy as np

from ..backend.csr import compile_network
from ..networks.base import InterconnectionNetwork, PartitionClass
from .native import native_kernel_active
from .set_builder import (
    ProbePlan,
    BuiltOnFirstRead,
    SetBuilderResult,
    certificate_node_budget,
    kernel_reads,
    run_probe_plan,
    set_builder,
    set_builder_many,
)
from .syndrome import Syndrome

__all__ = ["DiagnosisError", "ProbeRecord", "DiagnosisResult", "GeneralDiagnoser", "diagnose"]


class DiagnosisError(RuntimeError):
    """Raised when no certifiably healthy start node could be found.

    Under the paper's hypotheses (``|F| ≤ δ ≤ κ`` and a partition whose
    fault-free classes certify) this cannot happen; it can occur on instances
    outside those hypotheses, e.g. graphs whose healthy part is too small for
    any contributor certificate.
    """


@dataclass(frozen=True)
class ProbeRecord:
    """Bookkeeping for one probe of the healthy-root search."""

    start: int
    kind: str  # "partition" or "fallback"
    label: str
    certified: bool
    nodes_explored: int
    lookups: int


@dataclass
class DiagnosisResult:
    """Outcome of a full diagnosis run.

    Attributes
    ----------
    faulty:
        The diagnosed fault set (Theorem 1: equal to the actual fault set).
    healthy_root:
        The certifiably healthy node the final ``Set_Builder`` started from.
    healthy_nodes:
        The final grown set ``U_r`` (all healthy).
    tree_parent:
        The spanning tree of ``U_r`` produced as a by-product (paper
        Section 6 points out it can be reused by other services).
    probes:
        Per-probe records of the healthy-root search.
    partition_level:
        Partition level that produced the certified root, or ``None`` when
        the fallback probing found it.
    lookups:
        Total number of syndrome entries consulted.
    elapsed_seconds:
        Wall-clock time of the whole diagnosis.
    final:
        The final ``Set_Builder`` run; unless given, ``healthy_nodes`` and
        ``tree_parent`` are read from it, and built, on first access.
    """

    faulty: frozenset[int]
    healthy_root: int
    healthy_nodes: frozenset[int] = BuiltOnFirstRead(lambda r: frozenset(r.final.nodes))
    tree_parent: dict[int, int] = BuiltOnFirstRead(lambda r: r.final.parent)
    probes: list[ProbeRecord] = field(default_factory=list)
    partition_level: int | None = None
    lookups: int = 0
    elapsed_seconds: float = 0.0
    final: SetBuilderResult | None = field(default=None, compare=False, repr=False)

    @property
    def num_probes(self) -> int:
        return len(self.probes)

    def summary(self) -> str:
        """One-line human-readable summary (it builds no set)."""
        nodes = self.__dict__.get("healthy_nodes")
        size = self.final.size if nodes is None else len(nodes)
        return (
            f"{len(self.faulty)} faults, root={self.healthy_root}, "
            f"|U_r|={size}, probes={self.num_probes}, "
            f"lookups={self.lookups}, {self.elapsed_seconds * 1e3:.1f} ms"
        )


class GeneralDiagnoser:
    """The paper's general algorithm, packaged per network instance.

    Parameters
    ----------
    network:
        The interconnection network; must satisfy ``connectivity ≥
        diagnosability`` (Theorem 1's hypothesis).
    diagnosability:
        Override for ``δ`` (defaults to ``network.diagnosability()``); the
        actual number of faults must not exceed it.
    use_partition:
        If False, skip the partition search entirely and go straight to the
        unrestricted probing fallback (used by ablation E8).

    The topology is compiled on construction.  :meth:`diagnose` is
    :meth:`diagnose_many` over a one-item stack, and every syndrome takes
    the one path: :meth:`find_healthy_root`, then one
    :func:`~repro.core.set_builder.set_builder_many` call and one
    :meth:`~repro.backend.csr.CSRAdjacency.boundary_many` call for the
    stack.  Each step runs natively over what the kernel reads and on the
    rows oracle otherwise.
    """

    def __init__(
        self,
        network: InterconnectionNetwork,
        *,
        diagnosability: int | None = None,
        use_partition: bool = True,
    ) -> None:
        self.network = network
        self.delta = network.diagnosability() if diagnosability is None else int(diagnosability)
        if self.delta < 1:
            raise ValueError("diagnosability must be at least 1")
        self.use_partition = use_partition
        self.csr = compile_network(network)

    # ----------------------------------------------------------- root search
    def find_healthy_root(
        self, syndrome: Syndrome
    ) -> tuple[int, list[ProbeRecord], int | None]:
        """Locate a certifiably healthy node.

        Returns ``(root, probe_records, partition_level)`` where
        ``partition_level`` is ``None`` if the fallback probing found the
        root.  Raises :class:`DiagnosisError` if every probe fails, and
        ``ValueError`` for a syndrome laid out over another topology.

        The probes follow this diagnoser's :class:`_RootSearchPlan`: every
        partition level, then the budgeted and the unbudgeted fallback.
        Over a syndrome the kernel reads
        (:func:`~repro.core.set_builder.kernel_reads`) the whole search is
        one native :func:`~repro.core.set_builder.run_probe_plan` call when
        the native library is available, plus one more each time a search
        on the topology first reaches a level whose class table is not
        built yet; the records, root, level and lookup counts are those of
        the rows-oracle probes it replaces.
        """
        plan = self._root_search_plan()
        native = kernel_reads(self.csr, syndrome) and native_kernel_active()
        probes: list[ProbeRecord] = []
        while native and (ran := plan.native) is not None:
            first = len(probes)
            records = run_probe_plan(self.csr, syndrome, ran, self.delta, first)
            probes += [
                ProbeRecord(start, kind, label, bool(certified), size, lookups)
                for (start, kind, label, _, _, _), (size, lookups, certified, _, _)
                in zip(plan.probes[first:], records.tolist())
            ]
            if len(probes) == len(plan.probes) or (probes and probes[-1].certified):
                break
            plan.extend(self.csr, ran)  # the run reached the unbuilt levels
        else:  # no native plan (any more): the rows oracle runs the rest
            probes += self._oracle_probes(syndrome, plan, len(probes))
        if probes and probes[-1].certified:
            return probes[-1].start, probes, plan.probes[len(probes) - 1][3]
        raise DiagnosisError(
            "no probe produced the all-healthy certificate; the instance violates "
            "the hypotheses of Theorem 1 (or the healthy component is too small)"
        )

    def _probe_levels(self) -> list["_ProbeLevel"]:
        """The partition levels the root search probes, in order, with
        ``δ + 1`` classes each: the classes are node-disjoint, so one of
        them is fault-free.  A level whose classes have one node can never
        certify and is skipped; a level the network cannot build ends the
        list.
        """
        levels: list[_ProbeLevel] = []
        for level in range(self.network.max_partition_level() + 1):
            try:
                scheme = self.network.partition_scheme(level)
            except ValueError:
                break
            # Classes of size 1 can never certify; skip useless levels.
            if scheme.class_size <= 1:
                continue
            levels.append(_ProbeLevel(level, scheme.first(self.delta + 1)))
        return levels

    def _root_search_plan(self) -> "_RootSearchPlan":
        """This diagnoser's probe plan, cached on the compiled topology
        (:attr:`~repro.backend.csr.CSRAdjacency.probe_plans`), so a serving
        process walks the partition schemes once per topology.

        The partition levels (unless ``use_partition`` is off), then the
        fallback: ``δ + 1`` distinct start nodes spread across the node
        range — at most ``δ`` of them can be faulty — probed with an
        unrestricted run under the node budget of
        :func:`~repro.core.set_builder.certificate_node_budget`, then once
        more without a budget.
        """
        key = (self.delta, self.use_partition)
        plans = self.csr.probe_plans
        if key in plans:
            return plans[key]
        n = self.csr.num_nodes
        budget = min(certificate_node_budget(self.delta, self.csr.max_degree), n)
        count = min(self.delta + 1, n)
        stride = max(1, n // count)
        seen: set[int] = set()
        starts: list[int] = []
        for i in range(count):
            candidate = (i * stride) % n
            while candidate in seen:  # distinct even when the stride wraps
                candidate = (candidate + 1) % n
            seen.add(candidate)
            starts.append(candidate)
        plan = _RootSearchPlan(
            n, self._probe_levels() if self.use_partition else [], starts, budget
        )
        plans[key] = plan
        return plan

    def _oracle_probes(
        self, syndrome, plan: "_RootSearchPlan", first: int = 0
    ) -> list[ProbeRecord]:
        """The plan's probes from ``first`` on, on the rows oracle, up to and
        including the first certified one."""
        probes: list[ProbeRecord] = []
        for start, kind, label, _, restrict, max_nodes in plan.probes[first:]:
            result = set_builder(
                self.network,
                syndrome,
                start,
                diagnosability=self.delta,
                restrict=restrict,
                max_nodes=max_nodes,
                stop_on_certificate=True,
            )
            probes.append(ProbeRecord(
                start, kind, label, result.all_healthy, result.size, result.lookups,
            ))
            if result.all_healthy:
                break
        return probes

    # -------------------------------------------------------------- diagnosis
    def diagnose(self, syndrome: Syndrome) -> DiagnosisResult:
        """Run the full algorithm and return the diagnosed fault set.

        The same as ``diagnose_many([syndrome])[0]``, except that a captured
        :class:`DiagnosisError` or ``ValueError`` is raised, not returned.
        """
        [outcome] = self.diagnose_many([syndrome])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def diagnose_many(
        self, syndromes: Sequence[Syndrome]
    ) -> list["DiagnosisResult | Exception"]:
        """Diagnose a stack of syndromes with one batched final ``Set_Builder``.

        The healthy-root search stays per-syndrome (its probes are tiny and
        partition-restricted), but the network-sized final run — the bulk of
        every diagnosis — executes as a single
        :func:`~repro.core.set_builder.set_builder_many` pass over the whole
        stack, followed by one stacked boundary computation.  Each returned
        entry is **bit-identical** to what :meth:`diagnose` produces for the
        same syndrome, and to the rows-oracle diagnosis of
        ``syndrome.to_table()``: accusation set, healthy root, probe records
        and the consulted-entry count all match (pinned by
        ``tests/differential``).

        Failures never poison batch mates: a syndrome whose root search
        raises :class:`DiagnosisError`, or a ``ValueError`` (a syndrome laid
        out over another topology, say), yields the *exception object* in
        its slot — the exact exception :meth:`diagnose` raises — while the
        rest of the stack proceeds.

        A native result builds ``healthy_nodes`` and ``tree_parent`` on
        their first read, so a caller that reads only the accusation set
        and the counters, as the serving layer does, never pays for them.
        ``elapsed_seconds`` on every result is the wall clock of the whole
        batch call, not a per-item time.
        """
        start_time = time.perf_counter()
        outcomes: list[DiagnosisResult | Exception | None] = [None] * len(syndromes)
        searched: list[tuple[int, int, list[ProbeRecord], int | None, int]] = []
        for pos, syndrome in enumerate(syndromes):
            before = syndrome.lookups
            try:
                root, probes, level = self.find_healthy_root(syndrome)
            except (DiagnosisError, ValueError) as exc:
                outcomes[pos] = exc
                continue
            searched.append((pos, root, probes, level, before))
        if not searched:
            return outcomes

        batch = [syndromes[pos] for pos, *_ in searched]
        finals = set_builder_many(
            self.network, batch, [root for _, root, *_ in searched],
            diagnosability=self.delta,
        )
        boundaries = self.csr.boundary_many([final.member_mask for final in finals])
        elapsed = time.perf_counter() - start_time
        for (pos, root, probes, level, before), syndrome, final, faulty in zip(
            searched, batch, finals, boundaries
        ):
            outcomes[pos] = DiagnosisResult(
                faulty=frozenset(faulty),
                healthy_root=root,
                probes=probes,
                partition_level=level,
                lookups=syndrome.lookups - before,
                elapsed_seconds=elapsed,
                final=final,
            )
        return outcomes


class _ProbeLevel:
    """One partition level of the root search: its number and probed classes."""

    __slots__ = ("level", "classes")

    def __init__(self, level: int, classes: list[PartitionClass]) -> None:
        self.level = level
        self.classes = classes

    def class_table(self, csr) -> np.ndarray | None:
        """``int32`` per node: the index of the probed class holding it, or -1.

        Class ``k``'s entries come from a walk from its representative over
        ``cls.contains`` — exactly the nodes a restricted probe from there
        can ever add, at about ``|class|·Δ`` predicate calls rather than
        one per node of the network.  ``None`` when a representative lies
        outside its class or two probed classes share a reachable node: the
        rows-oracle probes then run the search, raising or answering exactly
        as they always have.  The walk reads the flat CSR arrays, so the
        native path never builds :attr:`CSRAdjacency.rows`.
        """
        indptr, indices = csr.indptr, csr.indices
        owner: dict[int, int] = {}
        for k, cls in enumerate(self.classes):
            contains = cls.contains
            rep = cls.representative
            if not 0 <= rep < csr.num_nodes or rep in owner or not contains(rep):
                return None
            owner[rep] = k
            stack = [rep]
            while stack:
                u = stack.pop()
                for v in indices[indptr[u]:indptr[u + 1]].tolist():
                    held = owner.get(v)
                    if held == k or not contains(v):
                        continue
                    if held is not None:
                        return None
                    owner[v] = k
                    stack.append(v)
        table = np.full(csr.num_nodes, -1, dtype=np.int32)
        table[np.fromiter(owner, dtype=np.int64, count=len(owner))] = np.fromiter(
            owner.values(), dtype=np.int32, count=len(owner)
        )
        return table


class _RootSearchPlan:
    """The root search's probes in order: every partition level's classes,
    then the fallback starts with a node budget and without one.

    ``probes`` holds one ``(start, kind, label, partition_level, restrict,
    max_nodes)`` tuple per probe.  :attr:`native` is the plan as the native
    kernel reads it, cut after the levels whose class tables are built:
    walking a level's classes costs up to one predicate call per node, so
    a level is walked only when a search first reaches it, and the
    fallback joins once every level is built.  It is ``None`` once a level
    turns out to have no class table; the rows oracle then runs the rest.
    """

    __slots__ = ("n", "levels", "probes", "_rows", "_tables", "_lock", "native")

    def __init__(self, n: int, levels: list["_ProbeLevel"], fallback: list[int],
                 budget: int) -> None:
        self.n = n
        self.levels = levels
        self.probes = [
            (cls.representative, "partition", cls.label, level.level, cls.contains, None)
            for level in levels for cls in level.classes
        ] + [
            (start, kind, f"node={start}", None, None, max_nodes)
            for kind, max_nodes in (("fallback", budget), ("fallback-unbudgeted", None))
            for start in fallback
        ]
        ends = np.cumsum([len(level.classes) for level in levels]
                         + [len(fallback)] * 2).tolist()
        self._rows = [(end, k, -1) for k, end in enumerate(ends[:len(levels)])] + [
            (ends[-2], -1, budget), (ends[-1], -1, -1)]
        self._tables: tuple[np.ndarray, ...] = ()
        self._lock = threading.Lock()  # searches on executor threads share plans
        self.native: ProbePlan | None = self._plan()

    def _plan(self) -> ProbePlan:
        built = len(self._tables)
        rows = self._rows[:built] if built < len(self.levels) else self._rows
        end = rows[-1][0] if rows else 0
        return ProbePlan(self.n, [probe[0] for probe in self.probes[:end]], rows,
                         self._tables or None)

    def extend(self, csr, ran: ProbePlan) -> None:
        """Walk the next level's classes into :attr:`native`, unless a
        concurrent search replaced ``ran`` already."""
        with self._lock:
            if self.native is ran:
                table = self.levels[len(self._tables)].class_table(csr)
                if table is None:
                    self.native = None
                else:
                    self._tables += (table,)
                    self.native = self._plan()


def diagnose(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    **kwargs,
) -> DiagnosisResult:
    """Convenience wrapper: run the paper's general algorithm on a syndrome.

    Equivalent to ``GeneralDiagnoser(network, **kwargs).diagnose(syndrome)``.
    """
    return GeneralDiagnoser(network, **kwargs).diagnose(syndrome)
