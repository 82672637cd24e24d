"""Analytical reference models for the distributed protocol.

The distributed ``Set_Builder`` protocol runs in :mod:`repro.distributed.engine`
(:class:`~repro.distributed.engine.ProtocolEngine`: messages, per-link
latency, loss, concurrent roots).  This module keeps the two closed-form
models it is checked against:

* :func:`derived_run_stats` — the original accounting, counts derived after
  the fact from a sequential ``Set_Builder`` run;
* :func:`extended_star_gossip_cost` — the flooding cost of Chiang & Tan's
  extended-star comparator.

The engine and the derived model agree exactly: for a unit-latency,
lossless, single-root run the engine's tree, round count and message count
coincide with :func:`derived_run_stats` (property-tested in
``tests/distributed/test_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backend.csr import compile_network
from ..core.set_builder import set_builder
from ..core.syndrome import Syndrome
from ..networks.base import InterconnectionNetwork
from .engine import ProtocolEngine

__all__ = [
    "DistributedRunStats",
    "derived_run_stats",
    "extended_star_gossip_cost",
]


@dataclass(frozen=True)
class DistributedRunStats:
    """Communication cost of one distributed diagnosis run."""

    rounds: int
    messages: int
    tree_size: int
    tree_depth: int
    faults_found: int

    def as_row(self) -> tuple:
        return (self.rounds, self.messages, self.tree_size, self.tree_depth, self.faults_found)


def derived_run_stats(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    root: int,
    *,
    diagnosability: int | None = None,
) -> DistributedRunStats:
    """The legacy *analytical* model: costs derived from a sequential run.

    This is the original (pre-engine) accounting, preserved verbatim as the
    reference model: run the sequential ``Set_Builder``, then charge

    * two rounds per growth phase plus ``depth`` convergecast rounds,
    * one invitation per edge inside the grown set (tree edges carry the
      successful invitation; every other internal edge is charged one
      duplicate invitation), and
    * one acceptance plus one convergecast message per tree edge.

    The engine reproduces these numbers exactly on its default channel; the
    property tests assert it, and :mod:`benchmarks.bench_backend` times the
    two against each other.
    """
    csr = compile_network(network)
    delta = network.diagnosability() if diagnosability is None else int(diagnosability)
    result = set_builder(network, syndrome, root, diagnosability=delta)

    depth = 0
    for node in result.nodes:
        depth = max(depth, result.depth_of(node))

    invitations = len(result.parent)
    rows = csr.rows
    in_tree = bytearray(csr.num_nodes)
    for node in result.nodes:
        in_tree[node] = 1
    parent_of = result.parent.get
    duplicate_invitations = 0
    for node in result.nodes:
        for nb in rows[node]:
            if in_tree[nb] and parent_of(nb) != node and parent_of(node) != nb:
                duplicate_invitations += 1
    duplicate_invitations //= 2

    acceptances = len(result.parent)
    convergecast = len(result.parent)
    messages = invitations + duplicate_invitations + acceptances + convergecast
    rounds = 2 * max(result.rounds, 1) + depth

    boundary = csr.boundary(
        result.member_mask if result.member_mask is not None else result.nodes
    )
    return DistributedRunStats(
        rounds=rounds,
        messages=messages,
        tree_size=len(result.nodes),
        tree_depth=depth,
        faults_found=len(boundary),
    )


def extended_star_gossip_cost(
    network: InterconnectionNetwork, *, radius: int = 3, engine: ProtocolEngine | None = None
) -> tuple[int, int]:
    """Rounds and messages for every node to learn its radius-``r`` tests.

    This is the communication cost of assembling the data Chiang & Tan's
    per-node rule needs: each node's extended star spans a fixed radius, so
    every node's local test results must be flooded ``radius`` hops.  With no
    ``engine`` the reliable synchronous closed form is returned (``radius``
    rounds, ``radius · 2|E|`` messages).  Passing a
    :class:`~repro.distributed.engine.ProtocolEngine` runs the flood on that
    engine's channel model instead — same latency, loss and duplication as
    the set-builder protocol, making the E9 comparison apples-to-apples —
    and returns the measured ``(rounds, messages)``.
    """
    if engine is not None:
        outcome = engine.run_gossip(radius)
        return outcome.rounds, outcome.messages
    edges = network.num_edges()
    return radius, 2 * radius * edges
