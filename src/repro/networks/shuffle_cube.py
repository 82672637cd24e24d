"""The shuffle-cube ``SQ_n`` (Li, Tan, Hsu & Sung [17]), ``n ≡ 2 (mod 4)``.

``SQ_n`` has the hypercube's node set.  ``SQ_2 = Q_2`` and, for ``n ≥ 6``,
``SQ_n`` consists of sixteen copies of ``SQ_{n-4}`` selected by the four
leading bits.  Each node has exactly four cross edges; which copies they reach
depends on the node's two lowest-order bits (its *class* ``u_1 u_0``): node
``u`` with leading nibble ``p`` is joined to the nodes with the same suffix
and leading nibble ``p ⊕ d`` for the four offsets ``d`` in the class's offset
set ``V_{u_1 u_0}``.

The defining reference [17] is not part of the reproduced paper's text, so the
four offset sets used here are a reconstruction, documented here:

* ``V_00 = {0001, 0010, 0100, 1000}``
* ``V_01 = {0011, 0110, 1100, 1001}``
* ``V_10 = {0101, 1010, 1101, 1011}``
* ``V_11 = {1111, 0111, 1110, 0110}``

Each set has four non-zero offsets, which makes ``SQ_n`` ``n``-regular and
partitionable into sixteen copies of ``SQ_{n-4}`` — the two structural
properties the paper's argument uses.  The remaining precondition of
Theorem 1, connectivity ``≥`` diagnosability, is checked computationally by
the test suite for ``SQ_6``.
"""

from __future__ import annotations

from typing import Sequence

from .base import DimensionalNetwork, PartitionScheme

__all__ = ["ShuffleCube"]

#: Offset sets V_c indexed by the node class c = (u_1 u_0).
OFFSET_SETS: tuple[tuple[int, ...], ...] = (
    (0b0001, 0b0010, 0b0100, 0b1000),  # class 00
    (0b0011, 0b0110, 0b1100, 0b1001),  # class 01
    (0b0101, 0b1010, 0b1101, 0b1011),  # class 10
    (0b1111, 0b0111, 0b1110, 0b0110),  # class 11
)


class ShuffleCube(DimensionalNetwork):
    """The shuffle-cube ``SQ_n`` with ``n = 4k + 2``."""

    family = "shuffle_cube"

    def __init__(self, dimension: int) -> None:
        if dimension % 4 != 2:
            raise ValueError("the shuffle-cube SQ_n is defined for n ≡ 2 (mod 4)")
        super().__init__(dimension, radix=2)

    # ------------------------------------------------------------------ graph
    def neighbors(self, v: int) -> Sequence[int]:
        result: list[int] = []
        cls = v & 0b11
        d = self.dimension
        # Peel the recursion: the four leading bits of the current sub-cube
        # occupy positions d-1 .. d-4.
        while d >= 6:
            shift = d - 4
            for offset in OFFSET_SETS[cls]:
                result.append(v ^ (offset << shift))
            d -= 4
        # Base case SQ_2 = Q_2 on the two lowest-order bits.
        result.append(v ^ 0b01)
        result.append(v ^ 0b10)
        return result

    def degree(self, v: int) -> int:
        return self.dimension

    @property
    def max_degree(self) -> int:
        return self.dimension

    @property
    def min_degree(self) -> int:
        return self.dimension

    # --------------------------------------------------------------- metadata
    def diagnosability(self) -> int:
        """Diagnosability ``n`` of ``SQ_n`` for ``n ≥ 4`` (paper, via [6])."""
        if self.dimension < 6:
            raise ValueError("diagnosability of SQ_n under the MM model requires n >= 6")
        return self.dimension

    def connectivity(self) -> int:
        return self.dimension

    # -------------------------------------------------------------- partitions
    def _min_subdimension(self) -> int:
        """Smallest admissible sub-dimension ``m ≡ 2 (mod 4)`` with ``2^m > δ``.

        For ``SQ_6`` no such ``m < n`` exists with ``2^m > 6`` (the only
        candidate is ``m = 2``); the diagnosis driver copes by falling back to
        unrestricted probing (see :mod:`repro.core.diagnosis`), so here we
        simply return the largest admissible sub-dimension below the required
        size.
        """
        delta = self.diagnosability()
        best = 2
        m = 2
        while m < self.dimension:
            best = m
            if 2**m > delta:
                break
            m += 4
        return best

    def max_partition_level(self) -> int:
        m0 = self._min_subdimension()
        return max(0, (self.dimension - 4 - m0) // 4)

    def partition_scheme(self, level: int = 0) -> PartitionScheme:
        m = self._min_subdimension() + 4 * int(level)
        if m >= self.dimension:
            raise ValueError(
                f"partition level {level} too coarse for dimension {self.dimension}"
            )
        return self._prefix_partition(m)
