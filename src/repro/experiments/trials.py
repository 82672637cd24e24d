"""Batched trial planning for the experiment layer.

Every experiment of DESIGN.md §5 is, at its core, a *factor product*: a set of
network instances × fault placements × seeds × algorithms, with one diagnosis
per combination.  Before this module each runner re-instantiated (and
re-walked) its topologies per trial; a :class:`TrialPlan` instead materialises
the whole trial table up front — in the style of an experiment-table runner —
and executes it against **shared compiled topologies**:

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
  topology still uses every worker — the case the old per-group fan-out ran
  inline.

Results are plain dataclasses of primitives, so they cross process boundaries
and feed the report tables of :mod:`repro.experiments.runners` directly.
Every trial carries its own seed (replicate seeds derive positionally via
:func:`repro.parallel.seeding.spawn_seeds`), so parallel execution is
bit-identical to serial execution regardless of worker count or chunk size.

The distributed experiment (E9) has its own factor table,
:class:`DistributedTrialPlan`, whose rows additionally sweep the protocol
engine's channel axes — concurrent-root count, loss rate, duplicate rate and
per-link latency distribution — and carry the extended-star gossip cost
measured on the *same* channel, so every row is a self-contained
protocol-vs-comparator data point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

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
    "DistributedTrialPlan",
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
class TrialSpec:
    """One row of the trial table (a single diagnosis run)."""

    label: str
    family: str
    params: tuple[tuple[str, int], ...]
    placement: str = "random"
    fault_count: int | None = None  # None → the network's diagnosability δ
    seed: int = 0
    behavior: str = "random"
    algorithm: str = "stewart"

    @property
    def network_kwargs(self) -> dict[str, int]:
        return dict(self.params)

    @property
    def scenario(self) -> str:
        """Scenario name matching the sweep convention (``random-max`` etc.)."""
        suffix = "max" if self.fault_count is None else str(self.fault_count)
        return f"{self.placement}-{suffix}"


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


def _seed_list(seeds: Sequence[int] | int, *, base_seed: int = 0) -> list[int]:
    """Replicate seeds for a factor table.

    An explicit sequence passes through; an integer asks for that many
    replicate seeds derived positionally from ``base_seed`` via
    ``SeedSequence.spawn`` — the worker-count-independent form.
    """
    if isinstance(seeds, int):
        return list(spawn_seeds(base_seed, seeds))
    return list(seeds)


def _chunked(items: list, size: int) -> Iterable[list]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


def _chunk_size(group_size: int, workers: int) -> int:
    """Default chunk size: about two chunks per worker per group.

    Small enough to load every worker even for a single-topology plan, big
    enough that task overhead stays amortised.
    """
    return max(1, -(-group_size // (2 * workers)))


def _run_group(specs: Sequence[TrialSpec]) -> list[TrialResult]:
    """Execute all trials of one ``(family, params)`` group (serial path)."""
    first = specs[0]
    network, csr = compiled_network(first.family, **first.network_kwargs)
    return _run_specs(network, csr, specs)


def _run_trial_chunk(
    handle: TopologyHandle | None, family: str, params: tuple,
    specs: Sequence[TrialSpec],
) -> tuple[list[TrialResult], dict]:
    """Pool task: one chunk of a group, plus worker diagnostics.

    The diagnostics record the compile-count delta the chunk caused in its
    worker — the aggregate over all chunks is how ``TrialPlan.run`` proves
    its zero-recompilation claim.
    """
    probe = compile_delta_probe()
    network, csr = worker_network(family, params, handle)
    results = _run_specs(network, csr, specs)
    return results, probe()


def _run_specs(
    network, csr, specs: Sequence[TrialSpec]
) -> list[TrialResult]:
    """Execute trial specs against an already-resolved compiled topology."""
    delta = network.diagnosability()
    results: list[TrialResult] = []
    for spec in specs:
        count = delta if spec.fault_count is None else spec.fault_count
        faults = PLACEMENTS[spec.placement](network, count, seed=spec.seed)
        syndrome = ArraySyndrome.from_faults(
            csr, faults, behavior=spec.behavior, seed=spec.seed
        )
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
class DistributedTrialSpec:
    """One row of a distributed-protocol trial table (a single engine run).

    Extends the diagnosis factor space with the engine's sweep axes: the
    number of concurrent known-healthy roots, the per-transmission loss and
    duplicate rates, and the per-link latency distribution.  The gossip
    comparator (extended-star data dissemination) is run on the same channel
    so each row carries its own apples-to-apples Chiang & Tan cost.
    """

    label: str
    family: str
    params: tuple[tuple[str, int], ...]
    placement: str = "random"
    fault_count: int | None = None  # None → the network's diagnosability δ
    seed: int = 0
    behavior: str = "random"
    root_count: int = 1
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    latency: str = "fixed:1"
    gossip_radius: int = 3

    @property
    def network_kwargs(self) -> dict[str, int]:
        return dict(self.params)

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


def _run_distributed_group(specs: Sequence[DistributedTrialSpec]) -> list[DistributedTrialResult]:
    """Execute all engine trials of one ``(family, params)`` group (serial path)."""
    first = specs[0]
    network, csr = compiled_network(first.family, **first.network_kwargs)
    return _run_distributed_specs(network, csr, specs)


def _run_distributed_chunk(
    handle: TopologyHandle | None, family: str, params: tuple,
    specs: Sequence[DistributedTrialSpec],
) -> tuple[list[DistributedTrialResult], dict]:
    """Pool task: one chunk of an engine group, plus worker diagnostics."""
    probe = compile_delta_probe()
    network, csr = worker_network(family, params, handle)
    results = _run_distributed_specs(network, csr, specs)
    return results, probe()


def _run_distributed_specs(
    network, csr, specs: Sequence[DistributedTrialSpec]
) -> list[DistributedTrialResult]:
    """Execute engine specs against an already-resolved compiled topology.

    The gossip comparator depends only on the channel config and radius (not
    on faults, placement or roots), so its flood — the most expensive
    simulation of a lossy row — is memoized per distinct channel within the
    call (chunked execution re-floods at most once per chunk; the numbers are
    identical because the flood is deterministic per channel).
    """
    gossip_memo: dict[tuple, tuple[int, int]] = {}
    results: list[DistributedTrialResult] = []
    for spec in specs:
        if spec.fault_count is None:
            count = network.diagnosability()
        else:
            count = spec.fault_count
        faults = PLACEMENTS[spec.placement](network, count, seed=spec.seed)
        syndrome = ArraySyndrome.from_faults(
            csr, faults, behavior=spec.behavior, seed=spec.seed
        )
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


def _run_plan_chunked(
    plan, chunk_task, group_runner, *,
    parallel: bool, max_workers: int | None, pool: WorkerPool | None,
    chunk_size: int | None, share_topology: bool,
) -> list:
    """Common chunked executor behind both plan classes.

    Groups by topology; each group's compiled arrays are published to shared
    memory once and its trials fan out in chunks over the (possibly caller-
    owned, persistent) worker pool.  Results return in table order and
    ``plan.last_run_stats`` records the distribution evidence — chunk count,
    worker pids, and the summed worker-side compile deltas (0 when topology
    sharing is on).
    """
    groups = plan.groups()
    results: list = [None] * len(plan.trials)
    use_pool = pool is not None or (parallel and plan.trials)
    plan.last_run_stats = None
    if not use_pool:
        for group in groups:
            for (position, _), result in zip(
                group, group_runner([spec for _, spec in group])
            ):
                results[position] = result
        return results

    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(max_workers)
    stats = {"chunks": 0, "worker_compiles": 0, "workers": set(),
             "topologies_published": 0}
    try:
        submissions = []
        for group in groups:
            first = group[0][1]
            handle = None
            if share_topology:
                _, csr = compiled_network(first.family, **first.network_kwargs)
                handle = pool.publish_topology(csr)
                stats["topologies_published"] += 1
            size = chunk_size or _chunk_size(len(group), pool.max_workers)
            for chunk in _chunked(group, size):
                future = pool.submit(
                    chunk_task, handle, first.family, first.params,
                    [spec for _, spec in chunk],
                )
                submissions.append((chunk, future))
        for chunk, future in submissions:
            chunk_results, chunk_stats = future.result()
            for (position, _), result in zip(chunk, chunk_results):
                results[position] = result
            stats["chunks"] += 1
            stats["worker_compiles"] += chunk_stats["compiles"]
            stats["workers"].add(chunk_stats["pid"])
    finally:
        if own_pool:
            pool.shutdown()
    stats["workers"] = sorted(stats["workers"])
    plan.last_run_stats = stats
    return results


class DistributedTrialPlan:
    """A factor-product table of engine runs over shared compiled topologies.

    The distributed analogue of :class:`TrialPlan`: rows are
    :class:`DistributedTrialSpec` and execution groups by topology so every
    trial on the same ``(family, params)`` shares one compiled CSR; execution
    fans out in chunks over a shared-memory worker pool exactly like
    diagnosis trials.
    """

    #: evidence of the last chunked run (None after a serial run) — see
    #: :func:`_run_plan_chunked`
    last_run_stats: dict | None = None

    def __init__(self, trials: Iterable[DistributedTrialSpec]) -> None:
        self.trials: list[DistributedTrialSpec] = list(trials)

    @classmethod
    def from_factors(
        cls,
        instances: Iterable[tuple[str, str, dict]],
        *,
        placements: Sequence[str] = ("random",),
        fault_count: int | None = None,
        seeds: Sequence[int] | int = (0,),
        behaviors: Sequence[str] = ("random",),
        root_counts: Sequence[int] = (1,),
        loss_rates: Sequence[float] = (0.0,),
        duplicate_rates: Sequence[float] = (0.0,),
        latencies: Sequence[str] = ("fixed:1",),
        gossip_radius: int = 3,
        base_seed: int = 0,
    ) -> "DistributedTrialPlan":
        """Build the factor-product table (innermost factor varies fastest).

        As with :meth:`TrialPlan.from_factors`, an integer ``seeds`` spawns
        that many positional replicate seeds from ``base_seed``.
        """
        seeds = _seed_list(seeds, base_seed=base_seed)
        trials = [
            DistributedTrialSpec(
                label=label,
                family=family,
                params=tuple(sorted(params.items())),
                placement=placement,
                fault_count=fault_count,
                seed=seed,
                behavior=behavior,
                root_count=root_count,
                loss_rate=loss_rate,
                duplicate_rate=duplicate_rate,
                latency=latency,
                gossip_radius=gossip_radius,
            )
            for (label, family, params), placement, seed, behavior, latency,
                loss_rate, duplicate_rate, root_count
            in product(list(instances), placements, seeds, behaviors, latencies,
                       loss_rates, duplicate_rates, root_counts)
        ]
        return cls(trials)

    def __len__(self) -> int:
        return len(self.trials)

    def groups(self) -> list[list[tuple[int, DistributedTrialSpec]]]:
        grouped: dict[tuple, list[tuple[int, DistributedTrialSpec]]] = {}
        for position, spec in enumerate(self.trials):
            grouped.setdefault((spec.family, spec.params), []).append((position, spec))
        return list(grouped.values())

    def run(
        self, *, parallel: bool = False, max_workers: int | None = None,
        pool: WorkerPool | None = None, chunk_size: int | None = None,
        share_topology: bool = True,
    ) -> list[DistributedTrialResult]:
        """Execute every trial; results come back in table order.

        With ``parallel=True`` (or an explicit ``pool``) the engine trials
        fan out in chunks over a shared-memory worker pool; see
        :meth:`TrialPlan.run` for the knobs.
        """
        return _run_plan_chunked(
            self, _run_distributed_chunk, _run_distributed_group,
            parallel=parallel, max_workers=max_workers, pool=pool,
            chunk_size=chunk_size, share_topology=share_topology,
        )


class TrialPlan:
    """An ordered trial table executed against shared compiled topologies."""

    #: evidence of the last chunked run (None after a serial run) — see
    #: :func:`_run_plan_chunked`
    last_run_stats: dict | None = None

    def __init__(self, trials: Iterable[TrialSpec]) -> None:
        self.trials: list[TrialSpec] = list(trials)

    @classmethod
    def from_factors(
        cls,
        instances: Iterable[tuple[str, str, dict]],
        *,
        placements: Sequence[str] = ("random",),
        fault_count: int | None = None,
        seeds: Sequence[int] | int = (0,),
        behaviors: Sequence[str] = ("random",),
        algorithms: Sequence[str] = ("stewart",),
        base_seed: int = 0,
    ) -> "TrialPlan":
        """Build the factor-product table.

        ``instances`` is an iterable of ``(label, family, params)``; the other
        factors multiply out in the order placement → seed → behaviour →
        algorithm (innermost varies fastest), matching the row order of the
        experiment tables.  ``seeds`` may be an explicit sequence or an
        integer replicate count, in which case the seeds derive positionally
        from ``base_seed`` via ``SeedSequence.spawn`` (bit-identical results
        however the table is later chunked across workers).
        """
        seeds = _seed_list(seeds, base_seed=base_seed)
        trials = [
            TrialSpec(
                label=label,
                family=family,
                params=tuple(sorted(params.items())),
                placement=placement,
                fault_count=fault_count,
                seed=seed,
                behavior=behavior,
                algorithm=algorithm,
            )
            for (label, family, params), placement, seed, behavior, algorithm
            in product(list(instances), placements, seeds, behaviors, algorithms)
        ]
        return cls(trials)

    def __len__(self) -> int:
        return len(self.trials)

    def groups(self) -> list[list[tuple[int, TrialSpec]]]:
        """Trials grouped by topology, each tagged with its table position."""
        grouped: dict[tuple, list[tuple[int, TrialSpec]]] = {}
        for position, spec in enumerate(self.trials):
            grouped.setdefault((spec.family, spec.params), []).append((position, spec))
        return list(grouped.values())

    def run(
        self, *, parallel: bool = False, max_workers: int | None = None,
        pool: WorkerPool | None = None, chunk_size: int | None = None,
        share_topology: bool = True,
    ) -> list[TrialResult]:
        """Execute every trial; results come back in table order.

        Parameters
        ----------
        parallel:
            Fan the trial table out over a worker pool.  Unlike the old
            per-group fan-out, parallelism is *chunked within groups* too:
            a plan over one huge topology still loads every worker, and no
            worker ever recompiles a topology (the compiled arrays arrive
            through shared memory).
        max_workers:
            Pool width when the pool is created here (ignored with ``pool``).
        pool:
            An existing persistent :class:`~repro.parallel.pool.WorkerPool`
            to run on (and keep warm across plans); implies parallelism.
        chunk_size:
            Trials per task; defaults to about two chunks per worker per
            group.
        share_topology:
            Publish compiled topologies to shared memory (the default).
            ``False`` restores per-worker recompilation — kept only as the
            benchmark's A/B baseline.

        Results are bit-identical across all execution modes: every trial
        carries its own derived seed, so scheduling cannot leak into the
        numbers.  After a pooled run, ``last_run_stats`` holds the chunk
        count, worker pids and the summed worker-side compile deltas
        (0 with ``share_topology=True``).
        """
        return _run_plan_chunked(
            self, _run_trial_chunk, _run_group,
            parallel=parallel, max_workers=max_workers, pool=pool,
            chunk_size=chunk_size, share_topology=share_topology,
        )
