"""Yang's cycle-decomposition diagnosis algorithm for hypercubes [27].

The paper's Section 3 reviews Yang's hypercube-specific algorithm, which this
module reconstructs from that review (the original reference is not part of
the reproduced text):

1. Decompose ``Q_n`` into ``2^{n-m}`` node-disjoint cycles: the Gray-code
   Hamiltonian cycles of the sub-cubes ``Q_m(v)`` obtained by fixing the
   leading ``n - m`` bits, with ``m`` minimal such that ``2^m > n`` (so each
   cycle is longer than the fault bound).  Consecutive cycles are joined by
   perfect matchings in the shape of ``Q_{n-m}`` (the paper's Fig. 1).
2. Find a *quiet* cycle: one on which ``s_x(y, z) = 0`` for every three
   consecutive nodes ``(y, x, z)``.  A quiet cycle longer than ``n``
   necessarily consists of healthy nodes.
3. Propagate outwards: a node ``y`` known to be healthy and possessing a
   known-healthy neighbour ``w`` diagnoses any third neighbour ``z`` via the
   single test ``s_y(z, w)``.  Starting from the quiet cycle this labels every
   node reachable through healthy testers; the nodes labelled faulty are the
   output.

The implementation additionally exposes the cycle decomposition itself (used
to regenerate the structure of the paper's Fig. 1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..backend.csr import compile_network
from ..core.syndrome import Syndrome
from ..networks.hypercube import Hypercube, gray_code_cycle

__all__ = ["YangDiagnosisResult", "YangCycleDiagnoser"]


@dataclass
class YangDiagnosisResult:
    """Outcome of a run of Yang's algorithm."""

    faulty: frozenset[int]
    healthy: frozenset[int]
    quiet_cycle_index: int
    cycles_scanned: int
    lookups: int
    undiagnosed: frozenset[int] = field(default_factory=frozenset)


class YangCycleDiagnoser:
    """Yang's cycle-based fault diagnosis for the hypercube ``Q_n``."""

    def __init__(self, network: Hypercube, *, sub_dimension: int | None = None) -> None:
        if not isinstance(network, Hypercube):
            raise TypeError("Yang's algorithm is specific to hypercubes")
        self.network = network
        n = network.dimension
        if sub_dimension is None:
            m = 1
            while 2**m <= n:
                m += 1
            sub_dimension = m
        if not 1 <= sub_dimension <= n:
            raise ValueError("sub-dimension out of range")
        self.sub_dimension = sub_dimension

    # ------------------------------------------------------------ decomposition
    def cycles(self) -> list[list[int]]:
        """The node-disjoint cycles of the decomposition (paper Fig. 1)."""
        n, m = self.network.dimension, self.sub_dimension
        base_cycle = gray_code_cycle(m)
        cycles = []
        for prefix in range(2 ** (n - m)):
            offset = prefix << m
            cycles.append([offset | node for node in base_cycle])
        return cycles

    # ---------------------------------------------------------------- diagnosis
    def _cycle_is_quiet(self, cycle: list[int], syndrome: Syndrome) -> bool:
        length = len(cycle)
        for i in range(length):
            y = cycle[(i - 1) % length]
            x = cycle[i]
            z = cycle[(i + 1) % length]
            if syndrome.lookup(x, y, z) != 0:
                return False
        return True

    def diagnose(self, syndrome: Syndrome) -> YangDiagnosisResult:
        """Diagnose the fault set from a syndrome.

        Raises ``RuntimeError`` when no quiet cycle exists, which cannot
        happen when the number of faults is at most ``n`` and the cycles
        outnumber the faults (the algorithm's precondition).
        """
        network = self.network
        lookups_before = syndrome.lookups
        cycles = self.cycles()

        quiet_index = None
        for index, cycle in enumerate(cycles):
            if self._cycle_is_quiet(cycle, syndrome):
                quiet_index = index
                break
        if quiet_index is None:
            raise RuntimeError(
                "no quiet cycle found: the fault set exceeds the algorithm's precondition"
            )

        healthy: set[int] = set(cycles[quiet_index])
        faulty: set[int] = set()
        diagnosed = set(healthy)

        # Worklist of healthy nodes whose neighbours may still need diagnosing.
        rows = compile_network(network).rows
        queue = deque(sorted(healthy))
        while queue:
            y = queue.popleft()
            # A healthy tester needs a known-healthy co-witness.
            witness = next((w for w in rows[y] if w in healthy), None)
            if witness is None:
                continue
            for z in rows[y]:
                if z in diagnosed or z == witness:
                    continue
                if syndrome.lookup(y, z, witness) == 0:
                    healthy.add(z)
                    diagnosed.add(z)
                    queue.append(z)
                else:
                    faulty.add(z)
                    diagnosed.add(z)

        undiagnosed = frozenset(range(network.num_nodes)) - diagnosed
        return YangDiagnosisResult(
            faulty=frozenset(faulty),
            healthy=frozenset(healthy),
            quiet_cycle_index=quiet_index,
            cycles_scanned=quiet_index + 1,
            lookups=syndrome.lookups - lookups_before,
            undiagnosed=undiagnosed,
        )
