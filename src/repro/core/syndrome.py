"""Syndromes under the comparison (MM) diagnosis model.

Under the MM model (paper Section 2) every node ``u`` tests every unordered
pair ``{v, w}`` of its neighbours and records a result ``s_u(v, w) ∈ {0, 1}``:

* if ``u`` is healthy, ``s_u(v, w) = 0`` iff **both** ``v`` and ``w`` are
  healthy (a faulty node always produces an incorrect response and two faulty
  nodes never produce identical responses, so any faulty neighbour forces a
  ``1``);
* if ``u`` is faulty the result is arbitrary.

The set of all results is the *syndrome*.  Two realisations are provided:

:class:`TableSyndrome`
    The complete syndrome stored as a dict — this models the paper's setting
    in which "the syndrome has already been obtained" and makes the size of
    the full table explicit (experiment E5 compares the number of entries the
    algorithm reads against this size).  :meth:`TableSyndrome.from_faults`
    is the readable reference build: it walks ``network.neighbors`` in the
    canonical order and shares no code with the served build.

:class:`~repro.backend.array_syndrome.ArraySyndrome`
    The served realisation over the compiled topology's flat pair layout;
    :func:`generate_syndrome` returns it.  Its bytes equal the reference
    table's entry for entry for the same faults, behaviour and seed.

Both count every lookup, which is the basis of the Section 6 cost comparison.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..networks.base import InterconnectionNetwork

if TYPE_CHECKING:  # pragma: no cover - the runtime import is deferred (cycle)
    from ..backend.array_syndrome import ArraySyndrome

__all__ = [
    "FaultyTesterBehavior",
    "Syndrome",
    "TableSyndrome",
    "generate_syndrome",
    "syndrome_table_size",
]


class FaultyTesterBehavior:
    """How a *faulty* tester answers its comparison tests.

    The MM model leaves these results completely arbitrary; a diagnosis
    algorithm must be correct whichever values they take.  The built-in
    behaviours cover the interesting corners:

    ``"random"``
        Independent fair coin per test (seeded).
    ``"all_zero"``
        The faulty tester always claims its neighbours agree — the most
        misleading behaviour for algorithms that trust 0-results.
    ``"all_one"``
        The faulty tester always reports disagreement.
    ``"mimic"``
        The faulty tester answers exactly as a healthy node would — the
        hardest case for algorithms that try to identify faulty testers by
        inconsistent answers.
    ``"anti_mimic"``
        The faulty tester answers the complement of the healthy answer.
    """

    NAMES = ("random", "all_zero", "all_one", "mimic", "anti_mimic")

    def __init__(self, name: str = "random", *, seed: int | None = 0) -> None:
        if name not in self.NAMES:
            raise ValueError(f"unknown faulty-tester behaviour {name!r}; choose from {self.NAMES}")
        self.name = name
        self.seed = seed

    def result(self, u: int, v: int, w: int, healthy_result: int, rng: random.Random) -> int:
        """Result reported by faulty tester ``u`` for the pair ``{v, w}``."""
        if self.name == "random":
            return rng.randint(0, 1)
        if self.name == "all_zero":
            return 0
        if self.name == "all_one":
            return 1
        if self.name == "mimic":
            return healthy_result
        return 1 - healthy_result  # anti_mimic

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FaultyTesterBehavior({self.name!r})"


def _canonical(u: int, v: int, w: int) -> tuple[int, int, int]:
    """Canonical key for the unordered test ``s_u(v, w)``."""
    return (u, v, w) if v <= w else (u, w, v)


class Syndrome(ABC):
    """Abstract syndrome: a read-only oracle for ``s_u(v, w)`` with lookup counting."""

    def __init__(self) -> None:
        self.lookups = 0

    @abstractmethod
    def _result(self, u: int, v: int, w: int) -> int:
        """Raw result for the canonical key (no counting)."""

    def lookup(self, u: int, v: int, w: int) -> int:
        """The test result ``s_u(v, w)`` (0 or 1).  Order of ``v, w`` is irrelevant."""
        if v == w:
            raise ValueError("a comparison test needs two distinct neighbours")
        self.lookups += 1
        return self._result(*_canonical(u, v, w))

    def reset_lookups(self) -> None:
        """Reset the lookup counter (used between benchmark phases)."""
        self.lookups = 0

    # Convenience alias matching the paper's notation.
    def s(self, u: int, v: int, w: int) -> int:
        """Alias of :meth:`lookup` mirroring the paper's ``s_u(v, w)`` notation."""
        return self.lookup(u, v, w)


class TableSyndrome(Syndrome):
    """A fully materialised syndrome table."""

    def __init__(self, table: Mapping[tuple[int, int, int], int]) -> None:
        super().__init__()
        self._table = {
            _canonical(*key): int(value) for key, value in table.items()
        }

    @classmethod
    def from_faults(
        cls,
        network: InterconnectionNetwork,
        faults: Iterable[int],
        *,
        behavior: FaultyTesterBehavior | str = "random",
        seed: int | None = 0,
    ) -> "TableSyndrome":
        """The full syndrome of a hidden fault set, drawn in canonical order.

        Testers ascending, each tester's sorted neighbours, pairs ``(v, w)``
        with ``v < w``: a healthy tester answers 1 iff ``v`` or ``w`` is
        faulty, a faulty one ``behavior.result(...)`` with the seeded
        generator.  This order fixes which coin each ``random`` answer gets;
        the served build reproduces it byte for byte.
        """
        fault_set = frozenset(int(f) for f in faults)
        for f in fault_set:
            if not 0 <= f < network.num_nodes:
                raise ValueError(f"fault {f} is not a node of the network")
        if isinstance(behavior, str):
            behavior = FaultyTesterBehavior(behavior, seed=seed)
        rng = random.Random(seed)
        table: dict[tuple[int, int, int], int] = {}
        for u in range(network.num_nodes):
            neighbors = sorted(network.neighbors(u))
            for i, v in enumerate(neighbors):
                for w in neighbors[i + 1 :]:
                    value = 1 if (v in fault_set or w in fault_set) else 0
                    if u in fault_set:
                        value = behavior.result(u, v, w, value, rng)
                    table[(u, v, w)] = value
        return cls(table)

    def _result(self, u: int, v: int, w: int) -> int:
        return self._table[(u, v, w)]

    def __len__(self) -> int:
        """Number of entries in the full table."""
        return len(self._table)

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Iterate ``((u, v, w), result)`` pairs (used by baselines that scan the table)."""
        return iter(self._table.items())

    def with_overrides(
        self, overrides: Mapping[tuple[int, int, int], int]
    ) -> "TableSyndrome":
        """A copy of the table with some entries replaced (used by tests)."""
        table = dict(self._table)
        for key, value in overrides.items():
            table[_canonical(*key)] = int(value)
        return TableSyndrome(table)


def syndrome_table_size(network: InterconnectionNetwork) -> int:
    """Number of entries in the complete syndrome table: ``Σ_u C(deg(u), 2)``."""
    total = 0
    for u in range(network.num_nodes):
        d = network.degree(u)
        total += d * (d - 1) // 2
    return total


def generate_syndrome(
    network: InterconnectionNetwork,
    faults: Iterable[int],
    *,
    behavior: FaultyTesterBehavior | str = "random",
    seed: int | None = 0,
) -> ArraySyndrome:
    """The syndrome of a fault set under the MM model, as served.

    ``behavior`` says how faulty testers answer (see
    :class:`FaultyTesterBehavior`) and ``seed`` seeds their arbitrary
    results.  Returns
    :meth:`ArraySyndrome.from_faults <repro.backend.array_syndrome.ArraySyndrome.from_faults>`,
    which equals :meth:`TableSyndrome.from_faults` entry for entry.
    """
    from ..backend.array_syndrome import ArraySyndrome  # deferred: avoids cycle

    return ArraySyndrome.from_faults(network, faults, behavior=behavior, seed=seed)
