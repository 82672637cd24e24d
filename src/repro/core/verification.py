"""Consistency checks between syndromes, fault sets and diagnoses.

These predicates encode the MM-model semantics of Section 2 and are used by

* the test suite, to validate generated syndromes and diagnosis outputs;
* the exhaustive baseline, which enumerates fault sets and keeps the
  consistent ones;
* the diagnosability utilities, which decide ``δ``-diagnosability of small
  graphs by searching for two distinct consistent fault sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..backend.csr import compile_network
from ..networks.base import InterconnectionNetwork
from .syndrome import Syndrome

__all__ = [
    "is_consistent_fault_set",
    "consistent_fault_sets",
    "assert_mm_semantics",
]


def is_consistent_fault_set(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    candidate: Iterable[int],
) -> bool:
    """Whether ``candidate`` could have produced ``syndrome`` under the MM model.

    A fault set ``F`` is consistent with a syndrome iff for every *healthy*
    tester ``u`` (``u ∉ F``) and every pair ``{v, w}`` of its neighbours the
    recorded result equals ``0`` exactly when both ``v`` and ``w`` are outside
    ``F``.  Results of faulty testers are unconstrained.
    """
    return _first_mismatch(network, syndrome, frozenset(candidate)) is None


def _first_mismatch(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    fault_set: frozenset[int],
) -> tuple[int, int, int, int, int] | None:
    """The first ``(u, v, w, actual, expected)``, testers ascending and
    pairs in slot order, where a healthy tester's result contradicts the MM
    model for ``fault_set``; ``None`` when there is none."""
    rows = compile_network(network).rows
    for u in range(network.num_nodes):
        if u in fault_set:
            continue
        for v, w in combinations(rows[u], 2):
            expected = 0 if (v not in fault_set and w not in fault_set) else 1
            actual = syndrome.lookup(u, v, w)
            if actual != expected:
                return u, v, w, actual, expected
    return None


def consistent_fault_sets(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    max_faults: int,
) -> list[frozenset[int]]:
    """All fault sets of size at most ``max_faults`` consistent with the syndrome.

    Exponential in ``max_faults``; intended for the small instances used to
    validate diagnosability and the exhaustive baseline.
    """
    nodes = range(network.num_nodes)
    found: list[frozenset[int]] = []
    for size in range(max_faults + 1):
        for subset in combinations(nodes, size):
            candidate = frozenset(subset)
            if is_consistent_fault_set(network, syndrome, candidate):
                found.append(candidate)
    return found


def assert_mm_semantics(
    network: InterconnectionNetwork,
    syndrome: Syndrome,
    faults: Iterable[int],
) -> None:
    """Assert that a syndrome obeys the MM model for the given fault set.

    Raises ``AssertionError`` when some healthy tester's result contradicts
    the model (used by the tests of the syndrome generators).
    """
    mismatch = _first_mismatch(network, syndrome, frozenset(faults))
    if mismatch is not None:
        u, v, w, actual, expected = mismatch
        raise AssertionError(
            f"healthy tester {u}: s_{u}({v},{w}) = {actual}, expected {expected}"
        )
