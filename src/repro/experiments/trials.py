"""Batched trial planning for the experiment layer.

Every experiment (E1–E9) is, at its core, a *factor product*: a set of
network instances × fault placements × seeds × behaviours × (algorithms, or
the protocol engine's channel axes), with one run per combination.  A
:class:`TrialPlan` materialises the whole trial table up front — in the style
of an experiment-table runner — and executes it against **shared compiled
topologies**:

* network instances come from the registry memo
  (:func:`repro.networks.registry.cached_network`), so every trial on the same
  ``(family, params)`` shares one object and one compiled
  :class:`~repro.backend.csr.CSRAdjacency`;
* syndromes are generated straight into the flat
  :class:`~repro.backend.array_syndrome.ArraySyndrome` layout (written only
  around the faults), which is also the diagnosis fast path;
* trials are grouped by topology, and groups fan out — in *chunks* — over a
  persistent shared-memory :class:`~repro.parallel.pool.WorkerPool`: the
  coordinator compiles each topology once, publishes the flat arrays to
  ``multiprocessing.shared_memory``, and workers map them zero-copy, so a
  sweep performs **zero per-worker recompilation** (each chunk task reports
  the compile-count delta it observed; ``last_run_stats`` aggregates the
  proof).  Chunking splits *within* a group too, so a plan over one huge
  topology still uses every worker.

A row is a :class:`TrialSpec` (one diagnosis) or a
:class:`DistributedTrialSpec` (one protocol-engine run whose rows also sweep
the concurrent-root count, loss rate, duplicate rate and per-link latency
distribution, and carry the extended-star gossip cost measured on the *same*
channel).  Each spec type names its sweep axes and runs its own rows, so one
plan — even a mixed one — executes both.

Results are plain dataclasses of primitives, so they cross process boundaries
and feed the report tables of :mod:`repro.experiments.runners` directly.
Every trial carries its own seed (replicate seeds derive positionally via
:func:`repro.parallel.seeding.spawn_seeds`), so parallel execution is
bit-identical to serial execution regardless of worker count or chunk size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from itertools import product
from typing import ClassVar, Iterable, Sequence

from ..backend.array_syndrome import ArraySyndrome
from ..baselines import ExtendedStarDiagnoser, YangCycleDiagnoser
from ..core.diagnosis import GeneralDiagnoser
from ..core.faults import PLACEMENTS
from ..distributed import ChannelConfig, ProtocolEngine, spread_roots
from ..networks.registry import compiled_network
from ..parallel import WorkerPool, spawn_seeds
from ..parallel.pool import compile_delta_probe, worker_network
from ..parallel.shm import TopologyHandle

__all__ = [
    "TrialSpec",
    "TrialResult",
    "TrialPlan",
    "DistributedTrialSpec",
    "DistributedTrialResult",
    "PLACEMENTS",
    "ALGORITHMS",
]

#: Algorithm factor levels: the paper's general algorithm plus the two
#: comparators of Section 3 (used by experiment E6).
ALGORITHMS = ("stewart", "yang", "extended_star")

#: A ``stewart`` trial's time is the best of this many diagnoses of one
#: syndrome: a single sub-millisecond timing is mostly scheduler noise, and
#: E1 fits a scaling exponent to these times.
STEWART_TIMING_RUNS = 3


@dataclass(frozen=True)
class _Trial:
    """The factors every row shares: a topology, a fault set and a syndrome."""

    label: str
    family: str
    params: tuple[tuple[str, int], ...]
    placement: str = "random"
    fault_count: int | None = None  # None → the network's diagnosability δ
    seed: int = 0
    behavior: str = "random"

    #: ``(from_factors keyword, field)`` sweep axes, outermost first
    AXES: ClassVar[tuple[tuple[str, str], ...]] = (
        ("placements", "placement"), ("seeds", "seed"), ("behaviors", "behavior"),
    )

    @property
    def network_kwargs(self) -> dict[str, int]:
        return dict(self.params)

    def faults_and_syndrome(self, network, csr) -> tuple[frozenset[int], ArraySyndrome]:
        """This row's injected faults and the syndrome they produce."""
        count = network.diagnosability() if self.fault_count is None else self.fault_count
        faults = PLACEMENTS[self.placement](network, count, seed=self.seed)
        return faults, ArraySyndrome.from_faults(
            csr, faults, behavior=self.behavior, seed=self.seed
        )


@dataclass(frozen=True)
class TrialSpec(_Trial):
    """One row of the trial table (a single diagnosis run)."""

    algorithm: str = "stewart"

    AXES: ClassVar[tuple[tuple[str, str], ...]] = (
        *_Trial.AXES, ("algorithms", "algorithm"),
    )

    @property
    def scenario(self) -> str:
        """Scenario name matching the sweep convention (``random-max`` etc.)."""
        suffix = "max" if self.fault_count is None else str(self.fault_count)
        return f"{self.placement}-{suffix}"

    @staticmethod
    def run_specs(network, csr, specs: Sequence["TrialSpec"]) -> list["TrialResult"]:
        """Execute trial specs against an already-resolved compiled topology."""
        delta = network.diagnosability()
        results: list[TrialResult] = []
        for spec in specs:
            faults, syndrome = spec.faults_and_syndrome(network, csr)
            healthy_root = None
            partition_level = None
            num_probes = 0
            lookups = None
            if spec.algorithm == "stewart":
                diagnoser = GeneralDiagnoser(network)
                elapsed = float("inf")
                for _ in range(STEWART_TIMING_RUNS):
                    start = time.perf_counter()
                    outcome = diagnoser.diagnose(syndrome)
                    elapsed = min(elapsed, time.perf_counter() - start)
                lookups = outcome.lookups  # one diagnosis's, not the runs' sum
                diagnosed = outcome.faulty
                healthy_root = outcome.healthy_root
                partition_level = outcome.partition_level
                num_probes = outcome.num_probes
            elif spec.algorithm == "yang":
                algorithm = YangCycleDiagnoser(network)
                start = time.perf_counter()
                diagnosed = algorithm.diagnose(syndrome).faulty
                elapsed = time.perf_counter() - start
            elif spec.algorithm == "extended_star":
                algorithm = ExtendedStarDiagnoser(network)
                start = time.perf_counter()
                diagnosed = algorithm.diagnose(syndrome).faulty
                elapsed = time.perf_counter() - start
            else:
                raise ValueError(f"unknown algorithm {spec.algorithm!r}")
            results.append(
                TrialResult(
                    spec=spec,
                    num_nodes=network.num_nodes,
                    delta=delta,
                    num_faults=len(faults),
                    exact=diagnosed == faults,
                    lookups=syndrome.lookups if lookups is None else lookups,
                    elapsed_seconds=elapsed,
                    healthy_root=healthy_root,
                    partition_level=partition_level,
                    num_probes=num_probes,
                )
            )
        return results


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial (primitives only: crosses process boundaries)."""

    spec: TrialSpec
    num_nodes: int
    delta: int
    num_faults: int
    exact: bool
    lookups: int
    elapsed_seconds: float
    healthy_root: int | None = None
    partition_level: int | None = None
    num_probes: int = 0

    @property
    def used_fallback(self) -> bool:
        """The healthy-root search resorted to unrestricted probing."""
        return self.spec.algorithm == "stewart" and self.partition_level is None


@dataclass(frozen=True)
class DistributedTrialSpec(_Trial):
    """One row of a distributed-protocol trial table (a single engine run).

    Extends the diagnosis factor space with the engine's sweep axes: the
    number of concurrent known-healthy roots, the per-transmission loss and
    duplicate rates, and the per-link latency distribution.  The gossip
    comparator (extended-star data dissemination) is run on the same channel
    so each row carries its own apples-to-apples Chiang & Tan cost.
    """

    root_count: int = 1
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    latency: str = "fixed:1"
    gossip_radius: int = 3

    AXES: ClassVar[tuple[tuple[str, str], ...]] = (
        *_Trial.AXES, ("latencies", "latency"), ("loss_rates", "loss_rate"),
        ("duplicate_rates", "duplicate_rate"), ("root_counts", "root_count"),
    )

    @property
    def scenario(self) -> str:
        return (f"{self.placement} loss={self.loss_rate} roots={self.root_count} "
                f"latency={self.latency}")

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            latency=self.latency,
            loss_rate=self.loss_rate,
            duplicate_rate=self.duplicate_rate,
            seed=self.seed,
        )

    @staticmethod
    def run_specs(
        network, csr, specs: Sequence["DistributedTrialSpec"]
    ) -> list["DistributedTrialResult"]:
        """Execute engine specs against an already-resolved compiled topology.

        The gossip comparator depends only on the channel config and radius
        (not on faults, placement or roots), so its flood — the most
        expensive simulation of a lossy row — is memoized per distinct
        channel within the call (chunked execution re-floods at most once per
        chunk; the numbers are identical because the flood is deterministic
        per channel).
        """
        gossip_memo: dict[tuple, tuple[int, int]] = {}
        results: list[DistributedTrialResult] = []
        for spec in specs:
            faults, syndrome = spec.faults_and_syndrome(network, csr)
            healthy = [v for v in range(network.num_nodes) if v not in faults]
            roots = spread_roots(healthy, spec.root_count)
            config = spec.channel_config()
            engine = ProtocolEngine(csr, config=config)
            start = time.perf_counter()
            outcome = engine.run_set_builder(syndrome, roots)
            elapsed = time.perf_counter() - start
            gossip_key = (config, spec.gossip_radius)
            if gossip_key not in gossip_memo:
                flood = engine.run_gossip(spec.gossip_radius)
                gossip_memo[gossip_key] = (flood.rounds, flood.messages)
            gossip_rounds, gossip_messages = gossip_memo[gossip_key]
            results.append(
                DistributedTrialResult(
                    spec=spec,
                    num_nodes=network.num_nodes,
                    num_faults=len(faults),
                    rounds=outcome.rounds,
                    messages=outcome.messages,
                    tree_size=outcome.tree_size,
                    tree_depth=outcome.tree_depth,
                    faults_found=outcome.faults_found,
                    false_positives=len(outcome.faulty - faults),
                    drops=outcome.drops,
                    retries=outcome.retries,
                    merges=outcome.merges,
                    contributors=outcome.contributors,
                    gossip_rounds=gossip_rounds,
                    gossip_messages=gossip_messages,
                    elapsed_seconds=elapsed,
                )
            )
        return results


@dataclass(frozen=True)
class DistributedTrialResult:
    """Outcome of one engine trial (primitives only: crosses process boundaries)."""

    spec: DistributedTrialSpec
    num_nodes: int
    num_faults: int
    rounds: int
    messages: int
    tree_size: int
    tree_depth: int
    faults_found: int
    false_positives: int
    drops: int
    retries: int
    merges: int
    contributors: int
    gossip_rounds: int
    gossip_messages: int
    elapsed_seconds: float

    @property
    def exact(self) -> bool:
        """Every injected fault diagnosed and nothing healthy accused."""
        return self.false_positives == 0 and self.faults_found == self.num_faults


def _run_chunk(
    handle: TopologyHandle, family: str, params: tuple, specs: Sequence[_Trial],
) -> tuple[list, dict]:
    """Pool task: one chunk of a group, plus worker diagnostics.

    The diagnostics record the compile-count delta the chunk caused in its
    worker — the aggregate over all chunks is how :meth:`TrialPlan.run`
    proves its zero-recompilation claim.
    """
    probe = compile_delta_probe()
    network, csr = worker_network(family, params, handle)
    results = type(specs[0]).run_specs(network, csr, specs)
    return results, probe()


class TrialPlan:
    """An ordered trial table executed against shared compiled topologies."""

    #: evidence of the last pooled run (None after a serial run) — see
    #: :meth:`run`
    last_run_stats: dict | None = None

    def __init__(self, trials: Iterable[_Trial]) -> None:
        self.trials: list[_Trial] = list(trials)

    @classmethod
    def from_factors(
        cls,
        instances: Iterable[tuple[str, str, dict]],
        *,
        spec: type[_Trial] = TrialSpec,
        seeds: Sequence[int] | int = (0,),
        base_seed: int = 0,
        **factors,
    ) -> "TrialPlan":
        """Build the factor-product table of ``spec`` rows.

        ``instances`` is an iterable of ``(label, family, params)``; the
        ``spec.AXES`` keywords that are given (``placements``, ``behaviors``,
        ``algorithms``, ``loss_rates`` …) multiply out in ``AXES`` order,
        innermost varying fastest, matching the row order of the experiment
        tables; an axis not given keeps its field's default.  Any other
        keyword (``fault_count``, ``gossip_radius``) sets that field on every
        row, so a name the spec does not have raises ``TypeError``.
        ``seeds`` may be an explicit sequence or an integer replicate count,
        in which case the seeds derive positionally from ``base_seed`` via
        ``SeedSequence.spawn`` (bit-identical results however the table is
        later chunked across workers).
        """
        if isinstance(seeds, int):
            seeds = spawn_seeds(base_seed, seeds)
        factors["seeds"] = list(seeds)
        defaults = {f.name: f.default for f in fields(spec)}
        names = [name for _, name in spec.AXES]
        levels = [factors.pop(keyword, (defaults[name],)) for keyword, name in spec.AXES]
        trials = [
            spec(label=label, family=family, params=tuple(sorted(params.items())),
                 **dict(zip(names, combination)), **factors)
            for (label, family, params), *combination in product(list(instances), *levels)
        ]
        return cls(trials)

    def __len__(self) -> int:
        return len(self.trials)

    def groups(self) -> list[list[tuple[int, _Trial]]]:
        """Trials grouped by spec type and topology, tagged with their position."""
        grouped: dict[tuple, list[tuple[int, _Trial]]] = {}
        for position, spec in enumerate(self.trials):
            key = (type(spec), spec.family, spec.params)
            grouped.setdefault(key, []).append((position, spec))
        return list(grouped.values())

    def run(
        self, *, pool: WorkerPool | None = None, chunk_size: int | None = None,
    ) -> list:
        """Execute every trial; results come back in table order.

        Without a ``pool`` each group runs in this process.  With one — a
        persistent :class:`~repro.parallel.pool.WorkerPool`, kept warm
        across plans by its owner — each group's compiled topology is
        published to shared memory once and its trials fan out in chunks of
        ``chunk_size`` (by default about two chunks per worker per group),
        so a plan over one huge topology still loads every worker and no
        worker ever recompiles a topology.

        Results are bit-identical either way: every trial carries its own
        derived seed, so scheduling cannot leak into the numbers.  After a
        pooled run, ``last_run_stats`` holds the chunk count, worker pids,
        topologies published and the summed worker-side compile deltas (0).
        """
        results: list = [None] * len(self.trials)
        self.last_run_stats = None
        stats = {"chunks": 0, "worker_compiles": 0, "workers": set(),
                 "topologies_published": set()}
        submissions = []
        for group in self.groups():
            first = group[0][1]
            network, csr = compiled_network(first.family, **first.network_kwargs)
            if pool is None:
                specs = [spec for _, spec in group]
                for (position, _), result in zip(
                    group, type(first).run_specs(network, csr, specs)
                ):
                    results[position] = result
                continue
            handle = pool.publish_topology(csr)
            stats["topologies_published"].add(handle.name)
            # About two chunks per worker per group by default: small enough
            # to load every worker even for a single-topology plan, big
            # enough that task overhead stays amortised.
            size = chunk_size or -(-len(group) // (2 * pool.max_workers))
            for start in range(0, len(group), size):
                chunk = group[start:start + size]
                future = pool.submit(
                    _run_chunk, handle, first.family, first.params,
                    [spec for _, spec in chunk],
                )
                submissions.append((chunk, future))
        if pool is None:
            return results
        for chunk, future in submissions:
            chunk_results, chunk_stats = future.result()
            for (position, _), result in zip(chunk, chunk_results):
                results[position] = result
            stats["chunks"] += 1
            stats["worker_compiles"] += chunk_stats["compiles"]
            stats["workers"].add(chunk_stats["pid"])
        stats["workers"] = sorted(stats["workers"])
        stats["topologies_published"] = len(stats["topologies_published"])
        self.last_run_stats = stats
        return results
