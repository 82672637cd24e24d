"""The n-dimensional twisted cube ``TQ_n`` (Hilbers, Koopman & van de Snepscheut [15]).

``TQ_n`` is defined for odd ``n``.  We use the standard recursive construction:
``TQ_1 = K_2`` and, for odd ``n ≥ 3``, ``TQ_n`` consists of four copies of
``TQ_{n-2}`` selected by the two leading bits ``u_{n-1} u_{n-2}``.  A node
``u = u_{n-1} u_{n-2} w`` is joined to two nodes in other copies, chosen by the
parity ``P(w) = w_{n-3} ⊕ ... ⊕ w_0`` of its inner part:

* if ``P(w) = 0``: to ``(ū_{n-1}) (ū_{n-2}) w`` and ``(ū_{n-1}) (u_{n-2}) w``;
* if ``P(w) = 1``: to ``(ū_{n-1}) (ū_{n-2}) w`` and ``(u_{n-1}) (ū_{n-2}) w``.

This yields an ``n``-regular graph with connectivity ``n`` (Chang, Wang & Hsu
[7]) and diagnosability ``n`` for (odd) ``n ≥ 5`` (via Chang et al. [6], as
quoted in the paper).  Fixing the leading ``2j`` bits splits ``TQ_n`` into
``4^j`` copies of ``TQ_{n-2j}``, which is the partition used for diagnosis;
consequently the partition levels of this class step the sub-dimension in
increments of two (see :meth:`TwistedCube.partition_scheme`).

The defining reference [15] is not part of the reproduced paper's text; the
construction above is a reconstruction, and every
property the diagnosis algorithm relies on — regularity, connectivity ≥
diagnosability, partition into connected copies — is verified by the test
suite.
"""

from __future__ import annotations

from typing import Sequence

from .base import DimensionalNetwork, PartitionScheme

__all__ = ["TwistedCube"]


class TwistedCube(DimensionalNetwork):
    """The twisted cube ``TQ_n`` for odd ``n``."""

    family = "twisted_cube"

    def __init__(self, dimension: int) -> None:
        if dimension % 2 == 0:
            raise ValueError("the twisted cube TQ_n is defined for odd n only")
        super().__init__(dimension, radix=2)

    # ------------------------------------------------------------------ graph
    @staticmethod
    def _parity(bits: int) -> int:
        return bits.bit_count() & 1

    def neighbors(self, v: int) -> Sequence[int]:
        result: list[int] = []
        n = self.dimension
        # Peel the recursion: at stage d (= n, n-2, ..., 3) the two leading
        # bits of the current sub-cube occupy positions d-1 and d-2 and the
        # inner part occupies positions d-3 .. 0.
        d = n
        while d >= 3:
            inner_mask = (1 << (d - 2)) - 1
            inner = v & inner_mask
            top = 1 << (d - 1)
            second = 1 << (d - 2)
            if self._parity(inner) == 0:
                result.append(v ^ top ^ second)
                result.append(v ^ top)
            else:
                result.append(v ^ top ^ second)
                result.append(v ^ second)
            d -= 2
        # Base case TQ_1 on the last remaining bit.
        result.append(v ^ 1)
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
        """Diagnosability ``n`` of ``TQ_n`` for ``n ≥ 4`` (paper, via [6]).

        Because ``TQ_n`` is only defined for odd ``n``, the first admissible
        dimension is ``n = 5``.
        """
        if self.dimension < 5:
            raise ValueError("diagnosability of TQ_n under the MM model requires n >= 5")
        return self.dimension

    def connectivity(self) -> int:
        return self.dimension

    # -------------------------------------------------------------- partitions
    def _min_subdimension(self) -> int:
        """Smallest odd sub-dimension ``m`` with ``2^m > δ``.

        The recursive structure only guarantees that fixing an *even* number
        of leading bits yields copies of a smaller twisted cube, so the
        sub-dimension must keep the parity of ``n`` (odd).
        """
        delta = self.diagnosability()
        m = 1
        while 2**m <= delta:
            m += 1
        if m % 2 == 0:
            m += 1
        return m

    def max_partition_level(self) -> int:
        m0 = self._min_subdimension()
        return max(0, (self.dimension - 2 - m0) // 2)

    def partition_scheme(self, level: int = 0) -> PartitionScheme:
        m = self._min_subdimension() + 2 * int(level)
        if m >= self.dimension:
            raise ValueError(
                f"partition level {level} too coarse for dimension {self.dimension}"
            )
        return self._prefix_partition(m)
