"""The twisted N-cube ``TQ'_n`` (Esfahanian, Ni & Sagan [13]).

The twisted N-cube is obtained from the hypercube by "twisting" one pair of
independent edges of a 4-cycle, which reduces the diameter by one while
preserving ``n``-regularity and connectivity ``n``.  We use the recursive
description quoted by the paper (Section 5.1): fixing the leading bit of
``TQ'_n`` at ``0`` yields a copy of the ordinary hypercube ``Q_{n-1}`` and
fixing it at ``1`` yields a copy of ``TQ'_{n-1}``, the two halves being joined
by the usual perfect matching.  The base case ``TQ'_3`` is ``Q_3`` with the
edges ``{000, 001}`` and ``{100, 101}`` replaced by ``{000, 101}`` and
``{100, 001}``.

The defining reference [13] is not part of the reproduced paper's text; this
construction is a reconstruction that satisfies
exactly the properties the paper's argument uses: ``n``-regularity, the
``Q_{n-1}`` / ``TQ'_{n-1}`` partition, and connectivity ``n`` (verified
computationally by the test suite for small ``n``).
"""

from __future__ import annotations

from typing import Sequence

from .base import DimensionalNetwork

__all__ = ["TwistedNCube"]


class TwistedNCube(DimensionalNetwork):
    """The twisted N-cube ``TQ'_n`` for ``n ≥ 3``."""

    family = "twisted_n_cube"

    def __init__(self, dimension: int) -> None:
        if dimension < 3:
            raise ValueError("the twisted N-cube TQ'_n requires n >= 3")
        super().__init__(dimension, radix=2)

    # ------------------------------------------------------------------ graph
    def neighbors(self, v: int) -> Sequence[int]:
        n = self.dimension
        # The twist lives in the innermost TQ'_3, i.e. in the sub-cube whose
        # leading n-3 bits are all 1 (each recursion level places the twisted
        # copy in the half with leading bit 1).
        twisted_prefix = ((1 << (n - 3)) - 1) << 3 if n > 3 else 0
        in_twisted_core = (v & ~0b111 if n > 3 else 0) == twisted_prefix

        result: list[int] = []
        for i in range(n):
            neighbor = v ^ (1 << i)
            if in_twisted_core and i == 0:
                low = v & 0b111
                if low in (0b000, 0b101, 0b100, 0b001):
                    # Twisted edges: 000 <-> 101 and 100 <-> 001 replace the
                    # hypercube edges 000 <-> 001 and 100 <-> 101.
                    neighbor = v ^ 0b101
            result.append(neighbor)
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
        """Diagnosability ``n`` of ``TQ'_n`` for ``n ≥ 4`` (paper, via [6])."""
        if self.dimension < 4:
            raise ValueError("diagnosability of TQ'_n under the MM model requires n >= 4")
        return self.dimension

    def connectivity(self) -> int:
        return self.dimension
