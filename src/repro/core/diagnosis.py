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
paper glosses over (DESIGN.md §4.5):

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

import time
from dataclasses import dataclass, field

from typing import Sequence

import numpy as np

from ..backend.csr import compile_network
from ..networks.base import InterconnectionNetwork, PartitionClass
from .set_builder import (
    ProbeScratch,
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
    """

    faulty: frozenset[int]
    healthy_root: int
    healthy_nodes: frozenset[int]
    tree_parent: dict[int, int]
    probes: list[ProbeRecord] = field(default_factory=list)
    partition_level: int | None = None
    lookups: int = 0
    elapsed_seconds: float = 0.0

    @property
    def num_probes(self) -> int:
        return len(self.probes)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{len(self.faulty)} faults, root={self.healthy_root}, "
            f"|U_r|={len(self.healthy_nodes)}, probes={self.num_probes}, "
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
    max_probes_per_level:
        Number of partition classes probed per level (default ``δ + 1``).
    use_partition:
        If False, skip the partition search entirely and go straight to the
        unrestricted probing fallback (used by ablation E8).
    fallback_probe_budget:
        Node budget of each fallback probe; defaults to
        :func:`certificate_node_budget`.
    compiled:
        If True (default), compile the topology to the flat-array backend on
        construction; every ``Set_Builder`` run and the final boundary
        computation then operate on the compiled arrays.  ``False`` selects
        the original object-based reference path.
    sharder:
        Optional :class:`~repro.parallel.sharded.ShardedSetBuilder` over the
        same topology.  When given, the *final* unrestricted ``Set_Builder``
        run — the only network-sized step of the algorithm — executes sharded
        (optionally across a worker pool); the probe search stays sequential
        because restricted probes never leave one partition class, i.e. one
        shard.  The sharded run is property-tested equal to the sequential
        one, so the diagnosis is unchanged — only its execution is
        distributed.  Requires ``compiled=True`` and an
        :class:`~repro.backend.array_syndrome.ArraySyndrome` over this
        network's compiled topology.
    """

    def __init__(
        self,
        network: InterconnectionNetwork,
        *,
        diagnosability: int | None = None,
        max_probes_per_level: int | None = None,
        use_partition: bool = True,
        fallback_probe_budget: int | None = None,
        compiled: bool = True,
        sharder=None,
    ) -> None:
        self.network = network
        self.delta = network.diagnosability() if diagnosability is None else int(diagnosability)
        if self.delta < 1:
            raise ValueError("diagnosability must be at least 1")
        self.max_probes_per_level = max_probes_per_level
        self.use_partition = use_partition
        self.fallback_probe_budget = fallback_probe_budget
        self.compiled = compiled
        self.csr = compile_network(network) if compiled else None
        if sharder is not None:
            if not compiled:
                raise ValueError("sharded final runs require the compiled backend")
            if sharder.csr is not self.csr:
                raise ValueError(
                    "the sharder must be built over this network's compiled topology"
                )
        self.sharder = sharder

    # ----------------------------------------------------------- root search
    def find_healthy_root(
        self, syndrome: Syndrome, *, scratch: ProbeScratch | None = None
    ) -> tuple[int, list[ProbeRecord], int | None]:
        """Locate a certifiably healthy node.

        Returns ``(root, probe_records, partition_level)`` where
        ``partition_level`` is ``None`` if the fallback probing found the
        root.  Raises :class:`DiagnosisError` if every probe fails.

        Over an :class:`~repro.backend.array_syndrome.ArraySyndrome` on this
        diagnoser's compiled topology, each partition level and each
        fallback attempt is one native ``probe_level`` call when the native
        library is available; the records, root, level and lookup counts
        are those of the scalar probes it replaces.  ``scratch`` lets a
        caller diagnosing many syndromes on one thread reuse one
        :class:`~repro.core.set_builder.ProbeScratch`.
        """
        probes: list[ProbeRecord] = []
        if not self._native_probes_apply(syndrome):
            scratch = None
        elif scratch is None:
            scratch = ProbeScratch.create(self.csr)

        if self.use_partition:
            for level in self._probe_levels():
                table = None if scratch is None else level.class_table(self.csr)
                if table is None:
                    outcomes = self._scalar_probes(
                        syndrome, level.starts.tolist(),
                        restricts=[cls.contains for cls in level.classes],
                    )
                else:
                    outcomes = _outcomes(scratch.run(
                        syndrome, level.starts, self.delta, class_of=table,
                    ))
                for cls, (size, lookups, certified) in zip(level.classes, outcomes):
                    probes.append(ProbeRecord(
                        start=cls.representative,
                        kind="partition",
                        label=cls.label,
                        certified=certified,
                        nodes_explored=size,
                        lookups=lookups,
                    ))
                    if certified:
                        return cls.representative, probes, level.level

        root = self._fallback_probe(syndrome, probes, scratch)
        if root is not None:
            return root, probes, None
        raise DiagnosisError(
            "no probe produced the all-healthy certificate; the instance violates "
            "the hypotheses of Theorem 1 (or the healthy component is too small)"
        )

    def _native_probes_apply(self, syndrome: Syndrome) -> bool:
        """Whether the native probes can stand in for the array path."""
        from ..backend.array_syndrome import ArraySyndrome

        return (
            self.csr is not None
            and isinstance(syndrome, ArraySyndrome)
            and syndrome.csr is self.csr
        )

    def _probe_levels(self) -> list["_ProbeLevel"]:
        """The partition levels the root search probes, in order.

        A level whose classes have one node can never certify and is
        skipped; a level the network cannot build ends the list.  Compiled
        diagnosers cache the list on the topology (see
        :attr:`~repro.backend.csr.CSRAdjacency.probe_plans`), so a serving
        process walks the partition schemes once per topology.
        """
        count = self.delta + 1 if self.max_probes_per_level is None \
            else self.max_probes_per_level
        plans = None if self.csr is None else self.csr.probe_plans
        if plans is not None and count in plans:
            return plans[count]
        levels: list[_ProbeLevel] = []
        for level in range(self.network.max_partition_level() + 1):
            try:
                scheme = self.network.partition_scheme(level)
            except ValueError:
                break
            # Classes of size 1 can never certify; skip useless levels.
            if scheme.class_size <= 1:
                continue
            levels.append(_ProbeLevel(level, scheme.first(count)))
        if plans is not None:
            plans[count] = levels
        return levels

    def _scalar_probes(self, syndrome, starts, *, restricts=None, max_nodes=None):
        """``(nodes_explored, lookups, certified)`` of each probe from
        ``starts`` in order, up to and including the first certified one."""
        for k, start in enumerate(starts):
            result = set_builder(
                self.network,
                syndrome,
                start,
                diagnosability=self.delta,
                restrict=None if restricts is None else restricts[k],
                max_nodes=max_nodes,
                stop_on_certificate=True,
                compiled=self.compiled,
            )
            yield result.size, result.lookups, result.all_healthy
            if result.all_healthy:
                return

    def _fallback_probe(
        self,
        syndrome: Syndrome,
        probes: list[ProbeRecord],
        scratch: ProbeScratch | None = None,
    ) -> int | None:
        """Probe ``δ + 1`` distinct nodes with a budgeted unrestricted run."""
        network = self.network
        budget = self.fallback_probe_budget
        if budget is None:
            max_degree = self.csr.max_degree if self.csr is not None else network.max_degree
            budget = certificate_node_budget(self.delta, max_degree)
        budget = min(budget, network.num_nodes)
        # δ + 1 distinct start nodes spread across the node range: at most δ
        # of them can be faulty.
        count = min(self.delta + 1, network.num_nodes)
        stride = max(1, network.num_nodes // count)
        candidates = [(i * stride) % network.num_nodes for i in range(count)]
        # Ensure distinctness even when the stride wraps.
        seen: set[int] = set()
        starts: list[int] = []
        for candidate in candidates:
            while candidate in seen:
                candidate = (candidate + 1) % network.num_nodes
            seen.add(candidate)
            starts.append(candidate)

        for attempt, max_nodes in enumerate((budget, None)):
            if scratch is None:
                outcomes = self._scalar_probes(syndrome, starts, max_nodes=max_nodes)
            else:
                outcomes = _outcomes(scratch.run(
                    syndrome, np.asarray(starts, dtype=np.int64), self.delta,
                    max_nodes=max_nodes,
                ))
            for start, (size, lookups, certified) in zip(starts, outcomes):
                probes.append(
                    ProbeRecord(
                        start=start,
                        kind="fallback" if attempt == 0 else "fallback-unbudgeted",
                        label=f"node={start}",
                        certified=certified,
                        nodes_explored=size,
                        lookups=lookups,
                    )
                )
                if certified:
                    return start
        return None

    # -------------------------------------------------------------- diagnosis
    def diagnose(self, syndrome: Syndrome) -> DiagnosisResult:
        """Run the full algorithm and return the diagnosed fault set."""
        start_time = time.perf_counter()
        lookups_before = syndrome.lookups

        root, probes, level = self.find_healthy_root(syndrome)

        if self.sharder is not None:
            final = self.sharder.run(syndrome, root, diagnosability=self.delta)
        else:
            final = set_builder(
                self.network,
                syndrome,
                root,
                diagnosability=self.delta,
                compiled=self.compiled,
            )
        healthy = final.nodes
        if self.csr is not None and final.member_mask is not None:
            faulty = self.csr.boundary(final.member_mask)
        else:
            faulty = self._boundary(healthy)

        elapsed = time.perf_counter() - start_time
        return DiagnosisResult(
            faulty=frozenset(faulty),
            healthy_root=root,
            healthy_nodes=frozenset(healthy),
            tree_parent=final.parent,
            probes=probes,
            partition_level=level,
            lookups=syndrome.lookups - lookups_before,
            elapsed_seconds=elapsed,
        )

    def diagnose_many(
        self, syndromes: Sequence[Syndrome], *, include_sets: bool = True
    ) -> list["DiagnosisResult | Exception"]:
        """Diagnose a stack of syndromes with one batched final ``Set_Builder``.

        The healthy-root search stays per-syndrome (its probes are tiny and
        partition-restricted), but the network-sized final run — the bulk of
        every diagnosis — executes as a single
        :func:`~repro.core.set_builder.set_builder_many` pass over the whole
        stack, followed by one stacked boundary computation.  Each returned
        entry is **bit-identical** to what :meth:`diagnose` produces for the
        same syndrome: accusation set, healthy root, probe records and the
        consulted-entry count all match (pinned by ``tests/differential``).

        Failures never poison batch mates: a syndrome whose root search
        raises :class:`DiagnosisError` (or a ``ValueError``) yields the
        *exception object* in its slot — the exact exception :meth:`diagnose`
        would have raised — while the rest of the stack proceeds.  Syndromes
        the stacked kernel cannot take (no compiled backend, a sharder
        configured, or a non-``ArraySyndrome``) fall back to a sequential
        :meth:`diagnose` per item, with the same per-item error capture.

        ``include_sets=False`` skips materialising ``healthy_nodes`` and
        ``tree_parent`` (they come back empty); ``faulty``, ``lookups`` and
        the probe bookkeeping are always exact.  The serving layer uses this
        light mode — its responses carry only the accusation set and
        counters.  ``elapsed_seconds`` on every stacked result is the wall
        clock of the whole batch call, not a per-item time.
        """
        from ..backend.array_syndrome import ArraySyndrome

        start_time = time.perf_counter()
        outcomes: list[DiagnosisResult | Exception | None] = [None] * len(syndromes)
        # One probe scratch per call, never per topology: batches on one
        # topology may run concurrently on executor threads.
        scratch = None if self.csr is None else ProbeScratch.create(self.csr)
        stacked: list[int] = []
        roots: list[int] = []
        probe_records: list[list[ProbeRecord]] = []
        levels: list[int | None] = []
        lookups_before: list[int] = []
        for pos, syndrome in enumerate(syndromes):
            if (self.csr is None or self.sharder is not None
                    or not isinstance(syndrome, ArraySyndrome)
                    or syndrome.csr is not self.csr):
                try:
                    outcomes[pos] = self.diagnose(syndrome)
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
                self.network, batch, roots,
                diagnosability=self.delta, materialize=include_sets,
            )
            boundaries = self.csr.boundary_many(
                [final.member_mask for final in finals]
            )
            elapsed = time.perf_counter() - start_time
            for k, pos in enumerate(stacked):
                outcomes[pos] = DiagnosisResult(
                    faulty=frozenset(boundaries[k]),
                    healthy_root=roots[k],
                    healthy_nodes=frozenset(finals[k].nodes),
                    tree_parent=finals[k].parent,
                    probes=probe_records[k],
                    partition_level=levels[k],
                    lookups=batch[k].lookups - lookups_before[k],
                    elapsed_seconds=elapsed,
                )
        return outcomes

    def _boundary(self, healthy: set[int]) -> set[int]:
        """Nodes adjacent to the healthy set but outside it (Theorem 1: the fault set)."""
        if self.csr is not None:
            return self.csr.boundary(healthy)
        boundary: set[int] = set()
        network = self.network
        for u in healthy:
            for v in network.neighbors(u):
                if v not in healthy:
                    boundary.add(v)
        return boundary


def _outcomes(records: np.ndarray) -> list[tuple[int, int, bool]]:
    """``(nodes_explored, lookups, certified)`` of native probe records."""
    return [(size, lookups, bool(certified))
            for size, lookups, certified, _, _ in records.tolist()]


class _ProbeLevel:
    """One partition level of the root search: its probed classes and,
    built on first native use, their per-node class table."""

    __slots__ = ("level", "classes", "starts", "_table")

    def __init__(self, level: int, classes: list[PartitionClass]) -> None:
        self.level = level
        self.classes = classes
        self.starts = np.array(
            [cls.representative for cls in classes], dtype=np.int64
        )
        self._table: np.ndarray | None | bool = False  # False: not built yet

    def class_table(self, csr) -> np.ndarray | None:
        """``int32`` per node: the index of the probed class holding it, or -1.

        Class ``k``'s entries come from a walk from its representative over
        ``cls.contains`` — exactly the nodes a restricted probe from there
        can ever add, at about ``|class|·Δ`` predicate calls rather than
        one per node of the network.  ``None`` when a representative lies
        outside its class or two probed classes share a reachable node: the
        scalar probes then run the level, raising or answering exactly as
        they always have.
        """
        if self._table is False:
            self._table = _walk_classes(csr, self.classes)
        return self._table


def _walk_classes(csr, classes: list[PartitionClass]) -> np.ndarray | None:
    rows = csr.rows
    owner: dict[int, int] = {}
    for k, cls in enumerate(classes):
        contains = cls.contains
        rep = cls.representative
        if not 0 <= rep < csr.num_nodes or rep in owner or not contains(rep):
            return None
        owner[rep] = k
        stack = [rep]
        while stack:
            for v in rows[stack.pop()]:
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


def diagnose(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    **kwargs,
) -> DiagnosisResult:
    """Convenience wrapper: run the paper's general algorithm on a syndrome.

    Equivalent to ``GeneralDiagnoser(network, **kwargs).diagnose(syndrome)``.
    """
    return GeneralDiagnoser(network, **kwargs).diagnose(syndrome)
