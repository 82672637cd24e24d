"""Analytical cost formulas quoted by the paper (Sections 4.2 and 6).

These closed-form expressions are the yardsticks the benchmarks compare
measured quantities against:

* ``set_builder_lookup_bound`` — Section 6: the number of syndrome entries
  ``Set_Builder(u0)`` consults is at most ``(Δ - 1)(Δ/2 + |U_r| - 1)``;
* :func:`~repro.core.syndrome.syndrome_table_size` (in the core) — the
  number of entries in the complete syndrome table, ``Σ_u C(deg(u), 2)``,
  which comparison-based algorithms that scan the whole table (Chiang &
  Tan's in particular) must consult;
* ``theorem_time_bound`` — the per-family time bounds of Theorems 2–7,
  expressed as an operation count proportional to ``Δ·N`` (used to check the
  measured scaling shape in experiments E1 and E3).
"""

from __future__ import annotations

from ..networks.base import InterconnectionNetwork

__all__ = [
    "set_builder_lookup_bound",
    "theorem_time_bound",
]


def set_builder_lookup_bound(max_degree: int, grown_set_size: int) -> float:
    """Section 6 bound on syndrome lookups: ``(Δ - 1)(Δ/2 + |U_r| - 1)``."""
    return (max_degree - 1) * (max_degree / 2 + grown_set_size - 1)


def theorem_time_bound(network: InterconnectionNetwork) -> int:
    """The ``O(Δ·N)`` operation count of Theorem 1 instantiated on a network.

    For the paper's families this specialises to the bounds of Theorems 2–7
    (e.g. ``O(n·2^n)`` for ``Q_n``, ``O(n·k^n)`` for ``Q^k_n``,
    ``O(n!·n)`` for ``P_n``): in every case it is ``Δ·N`` up to a constant.
    """
    return network.max_degree * network.num_nodes
