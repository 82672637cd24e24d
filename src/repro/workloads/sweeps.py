"""Parameter sweeps used by the benchmark harness (one per experiment family).

A sweep is a list of :class:`SweepPoint` objects: a network instance plus the
fault scenarios to run on it.  Keeping the sweeps here (rather than inline in
the benchmark modules) makes the experiment inputs reusable from the examples
and the CLI and keeps the E1–E9 experiment index executable.

The instance tables (``CUBE_VARIANT_INSTANCES`` etc.) are the single source of
truth shared with the batched experiment runner
(:mod:`repro.experiments.trials`): sweeps materialise fault scenarios for the
benchmark harness, trial plans turn the same tables into factor-product trial
rows.  Network construction goes through the registry memo
(:func:`repro.networks.registry.cached_network`), so repeated sweeps — and the
trial plans next to them — share one compiled topology per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.faults import FaultScenario, clustered_faults, random_faults
from ..networks.base import InterconnectionNetwork
from ..networks.registry import cached_network

__all__ = [
    "SweepPoint",
    "hypercube_sweep",
    "cube_variant_sweep",
    "kary_sweep",
    "permutation_sweep",
    "distributed_sweep",
    "CUBE_VARIANT_INSTANCES",
    "KARY_INSTANCES",
    "PERMUTATION_INSTANCES",
    "DISTRIBUTED_LOSS_RATES",
    "DISTRIBUTED_ROOT_COUNTS",
    "DISTRIBUTED_LATENCIES",
]

#: Experiment E9 engine axes: per-transmission loss rates, concurrent-root
#: counts and per-link latency distributions swept by the distributed
#: protocol engine (single source of truth for the E9 runner and the CLI).
DISTRIBUTED_LOSS_RATES: tuple[float, ...] = (0.0, 0.1)
DISTRIBUTED_ROOT_COUNTS: tuple[int, ...] = (1, 2)
DISTRIBUTED_LATENCIES: tuple[str, ...] = ("fixed:1", "uniform:1:3")


#: Experiment E2 instances: one benchmark-sized instance per hypercube variant
#: (Theorem 3).
CUBE_VARIANT_INSTANCES: list[tuple[str, str, dict]] = [
    ("CQ_10", "crossed_cube", {"dimension": 10}),
    ("TQ_9", "twisted_cube", {"dimension": 9}),
    ("FQ_10", "folded_hypercube", {"dimension": 10}),
    ("Q_10,6", "enhanced_hypercube", {"dimension": 10, "k": 6}),
    ("AQ_9", "augmented_cube", {"dimension": 9}),
    ("SQ_10", "shuffle_cube", {"dimension": 10}),
    ("TQ'_10", "twisted_n_cube", {"dimension": 10}),
]

#: Experiment E3 instances: k-ary n-cubes and augmented k-ary n-cubes
#: (Theorem 4).
KARY_INSTANCES: list[tuple[str, str, dict]] = [
    ("Q^4_4", "kary_ncube", {"n": 4, "k": 4}),
    ("Q^6_3", "kary_ncube", {"n": 3, "k": 6}),
    ("Q^8_3", "kary_ncube", {"n": 3, "k": 8}),
    ("Q^16_2", "kary_ncube", {"n": 2, "k": 16}),
    ("AQ_3,6", "augmented_kary_ncube", {"n": 3, "k": 6}),
    ("AQ_3,8", "augmented_kary_ncube", {"n": 3, "k": 8}),
]

#: Experiment E4 instances: star, (n,k)-star, pancake and arrangement graphs
#: (Theorems 5–7).
PERMUTATION_INSTANCES: list[tuple[str, str, dict]] = [
    ("S_6", "star", {"n": 6}),
    ("S_7", "star", {"n": 7}),
    ("S_7,4", "nk_star", {"n": 7, "k": 4}),
    ("S_6,3", "nk_star", {"n": 6, "k": 3}),
    ("P_6", "pancake", {"n": 6}),
    ("P_7", "pancake", {"n": 7}),
    ("A_7,3", "arrangement", {"n": 7, "k": 3}),
    ("A_6,2", "arrangement", {"n": 6, "k": 2}),
]


@dataclass
class SweepPoint:
    """One (network, scenarios) pair of a sweep."""

    label: str
    network: InterconnectionNetwork
    scenarios: list[FaultScenario] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return self.network.num_nodes


def _standard_scenarios(network: InterconnectionNetwork, seed: int) -> list[FaultScenario]:
    """Maximum-size random and clustered fault sets (the paper's worst case |F| = δ)."""
    delta = network.diagnosability()
    return [
        FaultScenario("random-max", random_faults(network, delta, seed=seed)),
        FaultScenario("clustered-max", clustered_faults(network, delta, seed=seed)),
    ]


def _points(instances: list[tuple[str, str, dict]], seed: int) -> list[SweepPoint]:
    points = []
    for label, family, params in instances:
        network = cached_network(family, **params)
        points.append(SweepPoint(label, network, _standard_scenarios(network, seed)))
    return points


def hypercube_sweep(dimensions: tuple[int, ...] = (7, 8, 9, 10, 11, 12), *, seed: int = 0
                    ) -> list[SweepPoint]:
    """Experiment E1: hypercubes of growing dimension."""
    instances = [(f"Q_{n}", "hypercube", {"dimension": n}) for n in dimensions]
    return _points(instances, seed)


def cube_variant_sweep(*, seed: int = 0) -> list[SweepPoint]:
    """Experiment E2: one benchmark-sized instance per hypercube variant (Theorem 3)."""
    return _points(CUBE_VARIANT_INSTANCES, seed)


def kary_sweep(*, seed: int = 0) -> list[SweepPoint]:
    """Experiment E3: k-ary n-cubes and augmented k-ary n-cubes (Theorem 4)."""
    return _points(KARY_INSTANCES, seed)


def permutation_sweep(*, seed: int = 0) -> list[SweepPoint]:
    """Experiment E4: star, (n,k)-star, pancake and arrangement graphs (Theorems 5–7)."""
    return _points(PERMUTATION_INSTANCES, seed)


def distributed_sweep(
    dimensions: tuple[int, ...] = (8, 9, 10),
    *,
    seed: int = 0,
    loss_rates: tuple[float, ...] = DISTRIBUTED_LOSS_RATES,
    root_counts: tuple[int, ...] = DISTRIBUTED_ROOT_COUNTS,
    latencies: tuple[str, ...] = ("fixed:1",),
):
    """Experiment E9: the engine's factor table over hypercubes.

    Returns a :class:`~repro.experiments.trials.TrialPlan` of
    :class:`~repro.experiments.trials.DistributedTrialSpec` rows, which
    sweep the channel axes (loss rate × root count × latency distribution)
    on top of the usual topology factor.  The import is deferred because
    :mod:`repro.experiments` itself consumes the instance tables of this
    module.
    """
    from ..experiments.trials import DistributedTrialSpec, TrialPlan

    instances = [(f"Q_{n}", "hypercube", {"dimension": n}) for n in dimensions]
    return TrialPlan.from_factors(
        instances,
        spec=DistributedTrialSpec,
        seeds=(seed,),
        loss_rates=loss_rates,
        root_counts=root_counts,
        latencies=latencies,
    )
