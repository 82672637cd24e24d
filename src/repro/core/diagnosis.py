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
from .set_builder import (
    ProbePlan,
    BuiltOnFirstRead,
    ProbeScratch,
    SetBuilderResult,
    certificate_node_budget,
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
    :meth:`diagnose_many` over a one-item stack; only syndromes the stacked
    kernel cannot take run the sequential rows oracle.
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
        self, syndrome: Syndrome, *, scratch: ProbeScratch | None = None
    ) -> tuple[int, list[ProbeRecord], int | None]:
        """Locate a certifiably healthy node.

        Returns ``(root, probe_records, partition_level)`` where
        ``partition_level`` is ``None`` if the fallback probing found the
        root.  Raises :class:`DiagnosisError` if every probe fails.

        The probes follow this diagnoser's :class:`_RootSearchPlan`: every
        partition level, then the budgeted and the unbudgeted fallback.
        Over an :class:`~repro.backend.array_syndrome.ArraySyndrome` on this
        diagnoser's compiled topology the whole search is one native
        ``probe_plan`` call when the native library is available, plus one
        more each time a search on the topology first reaches a level whose
        class table is not built yet; the records, root, level and lookup
        counts are those of the rows-oracle probes it replaces.  ``scratch``
        lets a caller diagnosing many syndromes on one thread reuse one
        :class:`~repro.core.set_builder.ProbeScratch`.
        """
        plan = self._root_search_plan()
        if not self._on_compiled_arrays(syndrome):
            scratch = None
        elif scratch is None:
            scratch = ProbeScratch.create(self.csr)
        probes: list[ProbeRecord] = []
        while scratch is not None and (native := plan.native) is not None:
            first = len(probes)
            records = scratch.run_plan(syndrome, native, self.delta, first)
            probes += [
                ProbeRecord(start, kind, label, bool(certified), size, lookups)
                for (start, kind, label, _, _, _), (size, lookups, certified, _, _)
                in zip(plan.probes[first:], records.tolist())
            ]
            if len(probes) == len(plan.probes) or (probes and probes[-1].certified):
                break
            plan.extend(self.csr, native)  # the run reached the unbuilt levels
        else:  # no native plan (any more): the rows oracle runs the rest
            probes += self._oracle_probes(syndrome, plan, len(probes))
        if probes and probes[-1].certified:
            return probes[-1].start, probes, plan.probes[len(probes) - 1][3]
        raise DiagnosisError(
            "no probe produced the all-healthy certificate; the instance violates "
            "the hypotheses of Theorem 1 (or the healthy component is too small)"
        )

    def _on_compiled_arrays(self, syndrome: Syndrome) -> bool:
        """Whether ``syndrome`` is an ArraySyndrome over this diagnoser's
        compiled topology — the only input the native probes and the
        stacked kernel take."""
        from ..backend.array_syndrome import ArraySyndrome

        return isinstance(syndrome, ArraySyndrome) and syndrome.csr is self.csr

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
        raises :class:`DiagnosisError` (or a ``ValueError``) yields the
        *exception object* in its slot — the exact exception :meth:`diagnose`
        raises — while the rest of the stack proceeds.  Syndromes the
        stacked kernel cannot take (not an ``ArraySyndrome`` over this
        topology) run the sequential rows oracle per item, with the same
        per-item error capture.

        A stacked result builds ``healthy_nodes`` and ``tree_parent`` on
        their first read, so a caller that reads only the accusation set
        and the counters, as the serving layer does, never pays for them.
        ``elapsed_seconds`` on every stacked result is the wall clock of
        the whole batch call, not a per-item time.
        """
        start_time = time.perf_counter()
        outcomes: list[DiagnosisResult | Exception | None] = [None] * len(syndromes)
        # One probe scratch per call, never per topology: batches on one
        # topology may run concurrently on executor threads.
        scratch = ProbeScratch.create(self.csr)
        stacked: list[int] = []
        roots: list[int] = []
        probe_records: list[list[ProbeRecord]] = []
        levels: list[int | None] = []
        lookups_before: list[int] = []
        for pos, syndrome in enumerate(syndromes):
            if not self._on_compiled_arrays(syndrome):
                try:
                    outcomes[pos] = self._diagnose_sequential(syndrome)
                except (DiagnosisError, ValueError) as exc:
                    outcomes[pos] = exc
                continue
            before = syndrome.lookups
            try:
                root, probes, level = self.find_healthy_root(
                    syndrome, scratch=scratch
                )
            except (DiagnosisError, ValueError) as exc:
                outcomes[pos] = exc
                continue
            stacked.append(pos)
            roots.append(root)
            probe_records.append(probes)
            levels.append(level)
            lookups_before.append(before)

        if stacked:
            batch = [syndromes[pos] for pos in stacked]
            finals = set_builder_many(
                self.network, batch, roots, diagnosability=self.delta
            )
            boundaries = self.csr.boundary_many(
                [final.member_mask for final in finals]
            )
            elapsed = time.perf_counter() - start_time
            for k, pos in enumerate(stacked):
                outcomes[pos] = DiagnosisResult(
                    faulty=frozenset(boundaries[k]),
                    healthy_root=roots[k],
                    probes=probe_records[k],
                    partition_level=levels[k],
                    lookups=batch[k].lookups - lookups_before[k],
                    elapsed_seconds=elapsed,
                    final=finals[k],
                )
        return outcomes

    def _diagnose_sequential(self, syndrome: Syndrome) -> DiagnosisResult:
        """One diagnosis on the rows oracle."""
        start_time = time.perf_counter()
        lookups_before = syndrome.lookups
        root, probes, level = self.find_healthy_root(syndrome)
        final = set_builder(self.network, syndrome, root, diagnosability=self.delta)
        return DiagnosisResult(
            faulty=frozenset(self.csr.boundary(final.nodes)),
            healthy_root=root,
            probes=probes,
            partition_level=level,
            lookups=syndrome.lookups - lookups_before,
            elapsed_seconds=time.perf_counter() - start_time,
            final=final,
        )


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
