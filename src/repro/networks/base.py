"""Base classes for interconnection-network topologies.

Every topology used in the paper (Section 5) is exposed through the
:class:`InterconnectionNetwork` interface.  The fault-diagnosis algorithm only
needs a handful of operations from a topology:

* ``num_nodes`` and ``neighbors(v)`` — the graph structure, with nodes encoded
  as dense integers ``0 .. N-1``;
* ``diagnosability()`` — the value of ``δ`` established in the literature and
  quoted by the paper;
* ``connectivity()`` — the (theoretical) vertex connectivity ``κ``; Theorem 1
  requires ``κ ≥ δ``;
* ``partition_scheme(level)`` — a decomposition of the node set into many
  node-disjoint, connected, equally sized classes, each with an easily
  computed representative (paper Section 5: sub-cubes obtained by fixing
  leading coordinates, sub-stars obtained by fixing a symbol, ...).

Two intermediate base classes cover the two structural families in the paper:

* :class:`DimensionalNetwork` — nodes are strings of digits (bit-strings for
  the cube variants, base-``k`` strings for k-ary n-cubes); partitions fix a
  prefix of the digits.
* :class:`PermutationNetwork` — nodes are permutations or arrangements of
  symbols; partitions fix the final symbol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only; networkx loads on use
    import networkx as nx

__all__ = [
    "PartitionClass",
    "PartitionScheme",
    "InterconnectionNetwork",
    "DimensionalNetwork",
    "PermutationNetwork",
    "ExplicitNetwork",
]


@dataclass(frozen=True)
class PartitionClass:
    """One class of a node-disjoint partition of a network.

    Attributes
    ----------
    representative:
        A canonical node of the class; the diagnosis driver starts
        ``Set_Builder`` from this node.
    size:
        Number of nodes in the class.
    contains:
        Membership predicate ``node -> bool``; must run in O(1) for the
        restricted ``Set_Builder`` to stay within its time bound.
    label:
        Human-readable identifier of the class (used in reports).
    """

    representative: int
    size: int
    contains: Callable[[int], bool]
    label: str = ""

    def members(self, network: "InterconnectionNetwork") -> list[int]:
        """Enumerate the members of the class (O(N); used only by tests)."""
        return [v for v in range(network.num_nodes) if self.contains(v)]


class PartitionScheme:
    """A full partition of the node set into :class:`PartitionClass` objects.

    ``PartitionScheme`` is a thin container: the per-topology subclasses of
    :class:`InterconnectionNetwork` construct the classes lazily so that a
    scheme over exponentially many classes never materialises more classes
    than the diagnosis driver actually probes.
    """

    def __init__(
        self,
        classes: Iterable[PartitionClass] | Callable[[], Iterator[PartitionClass]],
        *,
        num_classes: int,
        class_size: int,
        description: str = "",
    ) -> None:
        self._classes = classes
        self.num_classes = int(num_classes)
        self.class_size = int(class_size)
        self.description = description

    def __iter__(self) -> Iterator[PartitionClass]:
        if callable(self._classes):
            return self._classes()
        return iter(self._classes)

    def first(self, count: int) -> list[PartitionClass]:
        """Return the first ``count`` classes (or all of them if fewer)."""
        out: list[PartitionClass] = []
        for cls in self:
            out.append(cls)
            if len(out) >= count:
                break
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PartitionScheme({self.description!r}, num_classes={self.num_classes}, "
            f"class_size={self.class_size})"
        )


class InterconnectionNetwork(ABC):
    """Abstract interconnection network with integer-encoded nodes."""

    #: short machine-readable family name, e.g. ``"hypercube"``
    family: str = "abstract"

    # ------------------------------------------------------------------ graph
    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes ``N`` of the network."""

    @abstractmethod
    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbours of node ``v`` (any order, no duplicates)."""

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return len(self.neighbors(v))

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Δ``.  Regular networks override with the constant."""
        return max(self.degree(v) for v in range(self.num_nodes))

    @property
    def min_degree(self) -> int:
        """Minimum degree ``d``."""
        return min(self.degree(v) for v in range(self.num_nodes))

    def nodes(self) -> range:
        """Iterate the integer node identifiers."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge exactly once as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(self.neighbors(v)) for v in range(self.num_nodes)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (sorted-row bisect on the compiled CSR)."""
        from ..backend.csr import compile_network  # deferred: backend builds on this module

        return compile_network(self).has_edge(u, v)

    # ------------------------------------------------------- labels / encoding
    def node_label(self, v: int):
        """Structured label of node ``v`` (tuple of digits / permutation)."""
        return v

    def node_index(self, label) -> int:
        """Inverse of :meth:`node_label`."""
        return int(label)

    # --------------------------------------------------------------- metadata
    @abstractmethod
    def diagnosability(self) -> int:
        """Diagnosability ``δ`` of the network under the MM model.

        The values are the ones quoted in the paper (Section 5) and its
        references; a ``ValueError`` is raised for parameter ranges where the
        literature value does not apply.
        """

    @abstractmethod
    def connectivity(self) -> int:
        """(Theoretical) vertex connectivity ``κ`` of the network."""

    # -------------------------------------------------------------- partitions
    @abstractmethod
    def partition_scheme(self, level: int = 0) -> PartitionScheme:
        """A node-disjoint partition into connected classes.

        ``level`` selects the granularity: level 0 is the paper's choice (the
        smallest classes satisfying the counting argument of Section 5);
        higher levels coarsen the partition (classes grow, their number
        shrinks), which the diagnosis driver uses as an escalation ladder when
        the certificate threshold is not reached (see :mod:`repro.core.diagnosis`).
        A ``ValueError`` is raised when no coarser partition exists.
        """

    def max_partition_level(self) -> int:
        """Largest admissible ``level`` for :meth:`partition_scheme`."""
        return 0

    # ------------------------------------------------------------ conversions
    def to_networkx(self) -> nx.Graph:
        """Materialise the network as a :class:`networkx.Graph` (for tests)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.edges())
        return graph

    # ---------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return f"{type(self).__name__}(N={self.num_nodes})"


class DimensionalNetwork(InterconnectionNetwork):
    """Base class for networks whose nodes are length-``n`` strings of digits.

    Nodes are encoded as integers by interpreting the digit string
    ``(u_{n-1}, ..., u_0)`` in base ``radix``, with ``u_{n-1}`` (the "first
    component" in the paper's wording) as the most significant digit.  The
    canonical partition of Section 5 fixes the leading ``n - m`` digits, so a
    class is simply a contiguous block of the integer encoding and membership
    is a single shift-and-compare.
    """

    def __init__(self, dimension: int, radix: int) -> None:
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if radix < 2:
            raise ValueError("radix must be >= 2")
        self.dimension = int(dimension)
        self.radix = int(radix)
        self._num_nodes = self.radix**self.dimension

    # ------------------------------------------------------------------ graph
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    # ------------------------------------------------------- labels / encoding
    def node_label(self, v: int) -> tuple[int, ...]:
        """Digits ``(u_{n-1}, ..., u_0)`` of node ``v`` (most significant first)."""
        digits = []
        for _ in range(self.dimension):
            digits.append(v % self.radix)
            v //= self.radix
        return tuple(reversed(digits))

    def node_index(self, label: Sequence[int]) -> int:
        if len(label) != self.dimension:
            raise ValueError(
                f"label must have {self.dimension} digits, got {len(label)}"
            )
        value = 0
        for digit in label:
            digit = int(digit)
            if not 0 <= digit < self.radix:
                raise ValueError(f"digit {digit} out of range for radix {self.radix}")
            value = value * self.radix + digit
        return value

    def digit(self, v: int, position: int) -> int:
        """Digit ``u_position`` of node ``v`` (position 0 = least significant)."""
        return (v // self.radix**position) % self.radix

    # -------------------------------------------------------------- partitions
    def _min_subdimension(self) -> int:
        """Smallest sub-network dimension ``m`` used by the paper's partition.

        The paper chooses the minimal ``m`` with ``radix**m > δ`` so that each
        class has more than ``δ`` nodes while the number of classes
        ``radix**(n-m)`` still exceeds ``δ``.
        """
        delta = self.diagnosability()
        m = 1
        while self.radix**m <= delta:
            m += 1
        return m

    def max_partition_level(self) -> int:
        m0 = self._min_subdimension()
        # Need at least two classes, i.e. m <= dimension - 1.
        return max(0, self.dimension - 1 - m0)

    def partition_scheme(self, level: int = 0) -> PartitionScheme:
        m = self._min_subdimension() + int(level)
        if m >= self.dimension:
            raise ValueError(
                f"partition level {level} too coarse for dimension {self.dimension}"
            )
        return self._prefix_partition(m)

    def _prefix_partition(self, sub_dimension: int) -> PartitionScheme:
        """Partition obtained by fixing the leading ``n - m`` digits."""
        n, m, radix = self.dimension, sub_dimension, self.radix
        block = radix**m
        num_classes = radix ** (n - m)

        def make_class(prefix: int) -> PartitionClass:
            base = prefix * block

            def contains(v: int, _base: int = base, _block: int = block) -> bool:
                return _base <= v < _base + _block

            return PartitionClass(
                representative=base,
                size=block,
                contains=contains,
                label=f"prefix={prefix}",
            )

        def classes() -> Iterator[PartitionClass]:
            for prefix in range(num_classes):
                yield make_class(prefix)

        return PartitionScheme(
            classes,
            num_classes=num_classes,
            class_size=block,
            description=f"{self.family}: fix leading {n - m} digits (sub-dimension {m})",
        )


class PermutationNetwork(InterconnectionNetwork):
    """Base class for networks whose nodes are arrangements of symbols.

    Nodes are ``k``-arrangements of the symbols ``1..n`` (for the star and
    pancake graphs ``k = n`` and the arrangements are permutations).  Because
    the node count is modest (``n!/(n-k)!``), the adjacency lists are built
    eagerly at construction time; labels are stored in a list and indexed via
    a dictionary.
    """

    def __init__(self, n: int, k: int) -> None:
        if n < 2:
            raise ValueError("n must be >= 2")
        if not 1 <= k <= n:
            raise ValueError("k must satisfy 1 <= k <= n")
        self.n = int(n)
        self.k = int(k)
        self._labels: list[tuple[int, ...]] = list(self._generate_labels())
        self._index: dict[tuple[int, ...], int] = {
            label: i for i, label in enumerate(self._labels)
        }
        self._adjacency: list[tuple[int, ...]] = self._build_adjacency()

    # -------------------------------------------------------- label generation
    def _generate_labels(self) -> Iterator[tuple[int, ...]]:
        from itertools import permutations

        yield from permutations(range(1, self.n + 1), self.k)

    @abstractmethod
    def _label_neighbors(self, label: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Neighbouring labels of ``label`` according to the family's edges."""

    def _build_adjacency(self) -> list[tuple[int, ...]]:
        adjacency = []
        for label in self._labels:
            adjacency.append(
                tuple(sorted(self._index[other] for other in self._label_neighbors(label)))
            )
        return adjacency

    # ------------------------------------------------------------------ graph
    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    def neighbors(self, v: int) -> Sequence[int]:
        return self._adjacency[v]

    # ------------------------------------------------------- labels / encoding
    def node_label(self, v: int) -> tuple[int, ...]:
        return self._labels[v]

    def node_index(self, label) -> int:
        return self._index[tuple(label)]

    # -------------------------------------------------------------- partitions
    def partition_scheme(self, level: int = 0) -> PartitionScheme:
        """Partition by the symbol occupying the final position.

        Fixing the last position of the arrangement at each of the ``n``
        possible symbols splits the network into ``n`` classes; for the star,
        pancake, (n,k)-star and arrangement graphs each class induces a copy
        of the same family one dimension lower (paper, Theorems 5-7), hence is
        connected and has ``N / n`` nodes, comfortably exceeding the
        diagnosability ``δ ≤ k(n-k) < N/n`` for the admissible parameters.
        Permutation families expose a single level; requesting a coarser one
        raises ``ValueError``.
        """
        if level != 0:
            raise ValueError("permutation networks expose a single partition level")
        n = self.n
        last = self.k - 1
        size = self.num_nodes // n

        labels = self._labels
        index = self._index

        def make_class(symbol: int) -> PartitionClass:
            # Representative: lexicographically smallest arrangement ending in
            # ``symbol``.
            rest = [s for s in range(1, n + 1) if s != symbol]
            representative_label = tuple(rest[: self.k - 1]) + (symbol,)
            representative = index[representative_label]

            def contains(v: int, _symbol: int = symbol) -> bool:
                return labels[v][last] == _symbol

            return PartitionClass(
                representative=representative,
                size=size,
                contains=contains,
                label=f"last-symbol={symbol}",
            )

        def classes() -> Iterator[PartitionClass]:
            for symbol in range(1, n + 1):
                yield make_class(symbol)

        return PartitionScheme(
            classes,
            num_classes=n,
            class_size=size,
            description=f"{self.family}: fix symbol in final position",
        )


class ExplicitNetwork(InterconnectionNetwork):
    """A network defined by explicit adjacency lists.

    Useful for tests, for wrapping :mod:`networkx` graphs, and for the
    exhaustive baseline's tiny hand-built instances.
    """

    family = "explicit"

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        *,
        diagnosability: int | None = None,
        connectivity: int | None = None,
        family: str | None = None,
    ) -> None:
        self._adjacency = [tuple(sorted(set(neigh))) for neigh in adjacency]
        for v, neigh in enumerate(self._adjacency):
            for w in neigh:
                if not 0 <= w < len(self._adjacency):
                    raise ValueError(f"neighbour {w} of node {v} out of range")
                if w == v:
                    raise ValueError(f"self-loop at node {v}")
                if v not in self._adjacency[w]:
                    raise ValueError(f"edge ({v}, {w}) is not symmetric")
        self._diagnosability = diagnosability
        self._connectivity = connectivity
        if family is not None:
            self.family = family

    @classmethod
    def from_networkx(
        cls,
        graph: nx.Graph,
        *,
        diagnosability: int | None = None,
        connectivity: int | None = None,
        family: str | None = None,
    ) -> "ExplicitNetwork":
        """Build an :class:`ExplicitNetwork` from a networkx graph.

        Node labels are relabelled to ``0..N-1`` in sorted order.
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        adjacency = [[index[w] for w in graph.neighbors(node)] for node in nodes]
        return cls(
            adjacency,
            diagnosability=diagnosability,
            connectivity=connectivity,
            family=family,
        )

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    def neighbors(self, v: int) -> Sequence[int]:
        return self._adjacency[v]

    def diagnosability(self) -> int:
        if self._diagnosability is None:
            raise ValueError("diagnosability was not provided for this explicit network")
        return self._diagnosability

    def connectivity(self) -> int:
        if self._connectivity is None:
            import networkx as nx

            return nx.node_connectivity(self.to_networkx())
        return self._connectivity

    def partition_scheme(self, level: int = 0) -> PartitionScheme:
        """Trivial scheme: every node is the representative of a singleton class.

        Explicit networks have no structural decomposition; the generic
        diagnoser falls back to probing individual start nodes, which is
        adequate for the small graphs this class is intended for.
        """
        if level != 0:
            raise ValueError("explicit networks expose a single partition level")

        def make_class(v: int) -> PartitionClass:
            return PartitionClass(
                representative=v,
                size=1,
                contains=lambda u, _v=v: u == _v,
                label=f"node={v}",
            )

        def classes() -> Iterator[PartitionClass]:
            for v in range(self.num_nodes):
                yield make_class(v)

        return PartitionScheme(
            classes,
            num_classes=self.num_nodes,
            class_size=1,
            description="explicit: singleton classes",
        )
