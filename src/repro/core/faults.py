"""Fault-set generators ("workloads") for diagnosis experiments.

The paper assumes only that the fault set ``F`` has size at most the
diagnosability ``δ``; everything else about ``F`` is adversarial.  The
generators below produce the fault placements used by the tests, examples and
benchmarks:

* uniformly random fault sets of a given size;
* *clustered* faults concentrated around a seed node (stressing the partition
  search, because whole partition classes become faulty);
* *boundary* faults equal to the neighbourhood of a node (the classical
  worst case from the paper's Section 2 argument that ``δ`` is at most the
  minimum degree);
* *spread* faults placed in pairwise distant positions (stressing the final
  neighbourhood computation).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from ..networks.base import InterconnectionNetwork

__all__ = ["FaultScenario", "PLACEMENTS", "random_faults", "clustered_faults",
           "neighborhood_faults", "spread_faults", "scenario_suite"]


@dataclass(frozen=True)
class FaultScenario:
    """A named fault placement for one experiment run."""

    name: str
    faults: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.faults)


def random_faults(
    network: InterconnectionNetwork, count: int, *, seed: int | None = 0
) -> frozenset[int]:
    """``count`` faulty nodes chosen uniformly at random without replacement."""
    _check_count(network, count)
    rng = random.Random(seed)
    return frozenset(rng.sample(range(network.num_nodes), count))


def clustered_faults(
    network: InterconnectionNetwork, count: int, *, seed: int | None = 0
) -> frozenset[int]:
    """``count`` faulty nodes forming a connected cluster around a random seed node.

    Grown by breadth-first search from the seed node, so the faults form a
    ball; with the prefix partitions of Section 5 such a ball typically sits
    inside very few partition classes, making it easy for the search to find a
    fault-free class but hard for naive local rules.
    """
    _check_count(network, count)
    if count == 0:
        return frozenset()
    rng = random.Random(seed)
    start = rng.randrange(network.num_nodes)
    selected: list[int] = []
    seen = {start}
    queue = deque([start])
    while queue and len(selected) < count:
        node = queue.popleft()
        selected.append(node)
        neighbors = list(network.neighbors(node))
        rng.shuffle(neighbors)
        for nb in neighbors:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return frozenset(selected[:count])


def neighborhood_faults(
    network: InterconnectionNetwork, *, center: int | None = None, count: int | None = None,
    seed: int | None = 0,
) -> frozenset[int]:
    """Faults covering (part of) the neighbourhood of a node.

    With ``count`` equal to the degree of ``center`` this is the configuration
    from the paper's Section 2 argument bounding the diagnosability by the
    minimum degree; with ``count`` at most ``δ`` it remains diagnosable but is
    a stress case because the centre node is completely surrounded by faults
    and can never join the healthy tree.
    """
    rng = random.Random(seed)
    if center is None:
        center = rng.randrange(network.num_nodes)
    neighbors = sorted(network.neighbors(center))
    if count is None:
        count = len(neighbors)
    if count > len(neighbors):
        raise ValueError("count exceeds the degree of the centre node")
    return frozenset(neighbors[:count])


def spread_faults(
    network: InterconnectionNetwork, count: int, *, seed: int | None = 0, attempts: int = 64
) -> frozenset[int]:
    """``count`` faults chosen greedily to be pairwise non-adjacent where possible."""
    _check_count(network, count)
    rng = random.Random(seed)
    chosen: set[int] = set()
    blocked: set[int] = set()
    while len(chosen) < count:
        for _ in range(attempts):
            candidate = rng.randrange(network.num_nodes)
            if candidate not in chosen and candidate not in blocked:
                break
        else:
            candidate = rng.choice([v for v in range(network.num_nodes) if v not in chosen])
        chosen.add(candidate)
        blocked.update(network.neighbors(candidate))
        blocked.add(candidate)
    return frozenset(chosen)


#: The named placements a seeded request or a trial may ask for, each
#: called as ``placement(network, count, seed=seed)``.
PLACEMENTS = {
    "random": random_faults,
    "clustered": clustered_faults,
    "spread": spread_faults,
}


def scenario_suite(
    network: InterconnectionNetwork, *, seed: int | None = 0, max_faults: int | None = None
) -> Iterator[FaultScenario]:
    """The standard battery of fault scenarios for one network instance.

    Produces scenarios of sizes 0, 1, ``⌈δ/2⌉`` and ``δ`` for each placement
    strategy (subject to ``max_faults``).
    """
    delta = network.diagnosability()
    if max_faults is not None:
        delta = min(delta, max_faults)
    sizes = sorted({0, 1, max(1, delta // 2), delta})
    for size in sizes:
        yield FaultScenario(f"random-{size}", random_faults(network, size, seed=seed))
        if size >= 2:
            yield FaultScenario(f"clustered-{size}", clustered_faults(network, size, seed=seed))
            yield FaultScenario(f"spread-{size}", spread_faults(network, size, seed=seed))
    center = random.Random(seed).randrange(network.num_nodes)
    boundary = neighborhood_faults(network, center=center, count=min(delta, network.degree(center)),
                                   seed=seed)
    yield FaultScenario(f"neighborhood-{len(boundary)}", boundary)


def _check_count(network: InterconnectionNetwork, count: int) -> None:
    if count < 0:
        raise ValueError("fault count must be non-negative")
    if count > network.num_nodes:
        raise ValueError("fault count exceeds the number of nodes")
