"""Registry of the interconnection-network families covered by the paper.

The registry maps the machine-readable family name to a constructor taking
keyword parameters; it is used by the CLI, the examples and the benchmark
harness to instantiate networks uniformly, and by the survey utilities to walk
the whole zoo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..backend.csr import CSRAdjacency, compile_network
from ..service.cache import CacheStats, LRUCache
from .arrangement import ArrangementGraph
from .augmented_cube import AugmentedCube
from .base import InterconnectionNetwork
from .crossed_cube import CrossedCube
from .extensions import LocallyTwistedCube, MobiusCube
from .folded_hypercube import EnhancedHypercube, FoldedHypercube
from .hypercube import Hypercube
from .kary_ncube import AugmentedKAryNCube, KAryNCube
from .pancake import PancakeGraph
from .shuffle_cube import ShuffleCube
from .star_graph import NKStarGraph, StarGraph
from .twisted_cube import TwistedCube
from .twisted_n_cube import TwistedNCube

__all__ = [
    "FamilySpec",
    "FAMILIES",
    "PAPER_FAMILIES",
    "EXTENSION_FAMILIES",
    "create_network",
    "cached_network",
    "compiled_network",
    "clear_network_cache",
    "cache_stats",
    "set_network_cache_capacity",
    "available_families",
    "default_instances",
]

#: The fourteen families the paper works through explicitly (Section 5).
PAPER_FAMILIES: tuple[str, ...] = (
    "hypercube",
    "crossed_cube",
    "twisted_cube",
    "folded_hypercube",
    "enhanced_hypercube",
    "augmented_cube",
    "shuffle_cube",
    "twisted_n_cube",
    "kary_ncube",
    "augmented_kary_ncube",
    "nk_star",
    "star",
    "pancake",
    "arrangement",
)

#: Families added by this reproduction to exercise the paper's "numerous
#: further networks" claim.
EXTENSION_FAMILIES: tuple[str, ...] = ("locally_twisted_cube", "mobius_cube")


# Node-count formulas, keyed by the constructor's parameters.  Exponents and
# permutation lengths are clamped at 64 and bases at 2^64: a count past that
# is far past any serving bound either way, and the clamp keeps a hostile
# parameter from building a huge integer.
def _binary_cube(dimension, **_):
    return 2 ** min(dimension, 64)


def _kary_cube(n, k):
    return min(k, 1 << 64) ** min(n, 64)


def _permutations(n, k=None):
    return math.perm(min(n, 1 << 64), min(n if k is None else k, 64))


# Degree formulas, keyed the same way: the largest degree of an instance.
# The size check reads them only after the node count passed its bound, and
# one product of even a hostile parameter is cheap, so they need no clamp.
def _dimension(dimension, **_):
    return dimension


def _dimension_plus_one(dimension, **_):
    return dimension + 1


def _augmented_cube_degree(dimension):
    return 2 * dimension - 1


def _kary_cube_degree(n, k):
    return 2 * n


def _augmented_kary_cube_degree(n, k):
    return 4 * n - 2


def _star_degree(n, k=None):
    return n - 1


def _arrangement_degree(n, k):
    return k * (n - k)


@dataclass(frozen=True)
class FamilySpec:
    """Metadata describing one network family of the paper's Section 5."""

    name: str
    constructor: Callable[..., InterconnectionNetwork]
    description: str
    paper_theorem: str
    #: node count of an instance, from its constructor parameters (2^d for
    #: the binary cubes, k^n for the k-ary cubes, n!/(n-k)! for the
    #: permutation graphs), computed without building it
    node_count: Callable[..., int]
    #: maximum node degree of an instance, from the same parameters (d for
    #: the binary cubes, 2n for the k-ary cubes, n-1 for the star graphs)
    degree: Callable[..., int]
    #: keyword arguments for a small instance used in documentation/tests
    small: dict = field(default_factory=dict)
    #: keyword arguments for a benchmark-sized instance
    medium: dict = field(default_factory=dict)


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in [
        FamilySpec(
            "hypercube",
            Hypercube,
            "binary n-cube Q_n",
            "Theorem 2",
            _binary_cube,
            _dimension,
            small={"dimension": 7},
            medium={"dimension": 10},
        ),
        FamilySpec(
            "crossed_cube",
            CrossedCube,
            "crossed cube CQ_n",
            "Theorem 3",
            _binary_cube,
            _dimension,
            small={"dimension": 7},
            medium={"dimension": 10},
        ),
        FamilySpec(
            "twisted_cube",
            TwistedCube,
            "twisted cube TQ_n (odd n)",
            "Theorem 3",
            _binary_cube,
            _dimension,
            small={"dimension": 7},
            medium={"dimension": 9},
        ),
        FamilySpec(
            "folded_hypercube",
            FoldedHypercube,
            "folded hypercube FQ_n",
            "Theorem 3",
            _binary_cube,
            _dimension_plus_one,
            small={"dimension": 7},
            medium={"dimension": 10},
        ),
        FamilySpec(
            "enhanced_hypercube",
            EnhancedHypercube,
            "enhanced hypercube Q_{n,k}",
            "Theorem 3",
            _binary_cube,
            _dimension_plus_one,
            small={"dimension": 7, "k": 4},
            medium={"dimension": 10, "k": 6},
        ),
        FamilySpec(
            "augmented_cube",
            AugmentedCube,
            "augmented cube AQ_n",
            "Theorem 3",
            _binary_cube,
            _augmented_cube_degree,
            small={"dimension": 6},
            medium={"dimension": 9},
        ),
        FamilySpec(
            "shuffle_cube",
            ShuffleCube,
            "shuffle-cube SQ_n (n = 4k + 2)",
            "Theorem 3",
            _binary_cube,
            _dimension,
            small={"dimension": 6},
            medium={"dimension": 10},
        ),
        FamilySpec(
            "twisted_n_cube",
            TwistedNCube,
            "twisted N-cube TQ'_n",
            "Theorem 3",
            _binary_cube,
            _dimension,
            small={"dimension": 7},
            medium={"dimension": 10},
        ),
        FamilySpec(
            "kary_ncube",
            KAryNCube,
            "k-ary n-cube Q^k_n",
            "Theorem 4",
            _kary_cube,
            _kary_cube_degree,
            small={"n": 3, "k": 5},
            medium={"n": 3, "k": 8},
        ),
        FamilySpec(
            "augmented_kary_ncube",
            AugmentedKAryNCube,
            "augmented k-ary n-cube AQ_{n,k}",
            "Theorem 4 (corollary)",
            _kary_cube,
            _augmented_kary_cube_degree,
            small={"n": 3, "k": 4},
            medium={"n": 3, "k": 8},
        ),
        FamilySpec(
            "nk_star",
            NKStarGraph,
            "(n,k)-star graph S_{n,k}",
            "Theorem 5",
            _permutations,
            _star_degree,
            small={"n": 5, "k": 3},
            medium={"n": 7, "k": 4},
        ),
        FamilySpec(
            "star",
            StarGraph,
            "star graph S_n",
            "Theorem 5",
            _permutations,
            _star_degree,
            small={"n": 5},
            medium={"n": 7},
        ),
        FamilySpec(
            "pancake",
            PancakeGraph,
            "pancake graph P_n",
            "Theorem 6",
            _permutations,
            _star_degree,
            small={"n": 5},
            medium={"n": 7},
        ),
        FamilySpec(
            "arrangement",
            ArrangementGraph,
            "arrangement graph A_{n,k}",
            "Theorem 7",
            _permutations,
            _arrangement_degree,
            small={"n": 6, "k": 3},
            medium={"n": 7, "k": 3},
        ),
        FamilySpec(
            "locally_twisted_cube",
            LocallyTwistedCube,
            "locally twisted cube LTQ_n",
            "extension (Section 5 style)",
            _binary_cube,
            _dimension,
            small={"dimension": 7},
            medium={"dimension": 10},
        ),
        FamilySpec(
            "mobius_cube",
            MobiusCube,
            "Möbius cube MQ_n",
            "extension (Section 5 style)",
            _binary_cube,
            _dimension,
            small={"dimension": 7},
            medium={"dimension": 10},
        ),
    ]
}


def available_families() -> list[str]:
    """Names of all registered network families."""
    return sorted(FAMILIES)


def create_network(family: str, **params) -> InterconnectionNetwork:
    """Instantiate a network family by name.

    Parameters
    ----------
    family:
        One of :func:`available_families`.
    **params:
        Constructor parameters (e.g. ``dimension=10`` for the hypercube).
    """
    try:
        spec = FAMILIES[family]
    except KeyError as exc:
        raise ValueError(
            f"unknown network family {family!r}; available: {', '.join(available_families())}"
        ) from exc
    return spec.constructor(**params)


#: Default bound of the instance memo.  Wide enough that no sweep, test run
#: or survey in this repository ever evicts (the registry only has 16
#: families and a handful of sizes each), small enough that a long-running
#: server touring many parametrisations stays bounded.
DEFAULT_NETWORK_CACHE_CAPACITY = 64

#: Memoized instances keyed by ``(family, sorted params)``, bounded LRU.
#: Sharing the instance shares its compiled CSR adjacency (cached on the
#: instance by :func:`repro.backend.csr.compile_network`), so a sweep of many
#: trials over the same topology compiles it exactly once; eviction drops the
#: instance *and* its compiled arrays, which is the point — an unbounded memo
#: in a service process is a slow memory leak.
_network_cache: LRUCache[tuple[str, tuple[tuple[str, int], ...]], InterconnectionNetwork] = (
    LRUCache(DEFAULT_NETWORK_CACHE_CAPACITY)
)


def cached_network(family: str, **params) -> InterconnectionNetwork:
    """Like :func:`create_network`, but memoized per ``(family, params)``.

    All callers that ask for the same instance share one object — and with it
    one compiled flat-array topology.  Network instances are immutable after
    construction, so sharing is safe.  The memo is a bounded LRU (see
    :func:`set_network_cache_capacity` and :func:`cache_stats`).
    """
    key = (family, tuple(sorted(params.items())))
    return _network_cache.get_or_create(
        key, lambda: create_network(family, **params)
    )


def compiled_network(family: str, **params) -> tuple[InterconnectionNetwork, CSRAdjacency]:
    """A memoized instance together with its compiled CSR adjacency."""
    network = cached_network(family, **params)
    return network, compile_network(network)


def clear_network_cache() -> None:
    """Drop all memoized instances (tests; bounding long-lived processes)."""
    _network_cache.clear()


def cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the instance memo."""
    return _network_cache.stats()


def set_network_cache_capacity(capacity: int) -> None:
    """Re-bound the instance memo (shrinking evicts least-recent now)."""
    _network_cache.resize(capacity)


def default_instances(size: str = "small") -> dict[str, InterconnectionNetwork]:
    """Instantiate one representative of every family.

    ``size`` is ``"small"`` (test-sized) or ``"medium"`` (benchmark-sized).
    """
    if size not in ("small", "medium"):
        raise ValueError("size must be 'small' or 'medium'")
    instances = {}
    for name, spec in FAMILIES.items():
        params = spec.small if size == "small" else spec.medium
        instances[name] = spec.constructor(**params)
    return instances
