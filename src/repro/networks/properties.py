"""Structural property checks for interconnection networks.

These utilities verify, on concrete instances, the structural hypotheses the
paper's Theorem 1 and its Section 5 applications rely on: regularity of the
stated degree, vertex connectivity at least the diagnosability, and partition
schemes whose classes are pairwise disjoint, connected, and cover the node
set.  They back both the test suite and experiment E7.  The checks that
compute with :mod:`networkx` import it when they run, so importing this
module (as :mod:`repro.networks` does) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import InterconnectionNetwork, PartitionScheme

__all__ = [
    "PropertyReport",
    "is_regular",
    "vertex_connectivity",
    "check_partition",
    "verify_theorem1_preconditions",
]


@dataclass
class PropertyReport:
    """Outcome of :func:`verify_theorem1_preconditions`."""

    family: str
    num_nodes: int
    degree: int
    regular: bool
    diagnosability: int
    connectivity_claimed: int
    connectivity_measured: int | None
    satisfies_theorem1: bool

    def as_row(self) -> tuple:
        """Row representation used by the experiment E7 report."""
        return (
            self.family,
            self.num_nodes,
            self.degree,
            self.regular,
            self.diagnosability,
            self.connectivity_claimed,
            self.connectivity_measured,
            self.satisfies_theorem1,
        )


def is_regular(network: InterconnectionNetwork) -> bool:
    """Whether every node has the same degree."""
    degrees = {network.degree(v) for v in range(network.num_nodes)}
    return len(degrees) == 1


def vertex_connectivity(network: InterconnectionNetwork) -> int:
    """Exact vertex connectivity, computed via networkx (small instances only)."""
    import networkx as nx

    return nx.node_connectivity(network.to_networkx())


def check_partition(
    network: InterconnectionNetwork, scheme: PartitionScheme, *, max_classes: int | None = None
) -> None:
    """Validate a partition scheme on a concrete network.

    Checks, for the first ``max_classes`` classes (all of them if ``None``):

    * class sizes match the advertised ``class_size``;
    * classes are pairwise disjoint;
    * every class induces a connected subgraph;
    * the representative belongs to its class;

    and, when all classes are examined, that they cover the node set.
    Raises ``AssertionError`` on violation (the function backs the tests).
    """
    import networkx as nx

    graph = network.to_networkx()
    seen: set[int] = set()
    examined = 0
    for cls in scheme:
        members = cls.members(network)
        assert len(members) == cls.size, (
            f"class {cls.label}: advertised size {cls.size}, actual {len(members)}"
        )
        assert cls.contains(cls.representative), (
            f"class {cls.label}: representative {cls.representative} not a member"
        )
        overlap = seen.intersection(members)
        assert not overlap, f"class {cls.label}: overlaps previous classes on {sorted(overlap)[:5]}"
        seen.update(members)
        if len(members) > 1:
            sub = graph.subgraph(members)
            assert nx.is_connected(sub), f"class {cls.label}: induced subgraph disconnected"
        examined += 1
        if max_classes is not None and examined >= max_classes:
            return
    assert examined == scheme.num_classes, (
        f"scheme advertises {scheme.num_classes} classes, produced {examined}"
    )
    assert len(seen) == network.num_nodes, "partition classes do not cover the node set"


def verify_theorem1_preconditions(
    network: InterconnectionNetwork, *, compute_connectivity: bool = True
) -> PropertyReport:
    """Check the hypotheses of Theorem 1 on a concrete instance.

    The theorem requires connectivity ``κ ≥ δ`` (diagnosability).  For small
    instances the connectivity is computed exactly; for larger ones the
    theoretical value is trusted and ``connectivity_measured`` is ``None``.
    """
    delta = network.diagnosability()
    kappa_claimed = network.connectivity()
    kappa_measured = vertex_connectivity(network) if compute_connectivity else None
    kappa = kappa_measured if kappa_measured is not None else kappa_claimed
    degree = network.degree(0)
    return PropertyReport(
        family=network.family,
        num_nodes=network.num_nodes,
        degree=degree,
        regular=is_regular(network),
        diagnosability=delta,
        connectivity_claimed=kappa_claimed,
        connectivity_measured=kappa_measured,
        satisfies_theorem1=kappa >= delta,
    )
