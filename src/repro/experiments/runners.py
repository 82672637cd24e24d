"""Experiment runners: regenerate every table of EXPERIMENTS.md programmatically.

Each function reproduces one experiment of DESIGN.md §5 (E1–E9) at laptop
scale and returns a formatted text table plus the raw rows.  The
``pytest-benchmark`` modules under ``benchmarks/`` measure the same quantities
with statistical rigour; these runners exist so that

* ``python -m repro.experiments`` (or ``repro-diagnose`` users) can regenerate
  the EXPERIMENTS.md tables in one command without pytest, and
* the test suite can assert the *claims* behind every experiment cheaply.

The diagnosis experiments (E1–E4, E6 and the root search of E9) run through
the batched :class:`~repro.experiments.trials.TrialPlan`: the factor-product
trial table executes against one shared compiled topology per
``(family, size)`` — instead of rebuilding the network per trial — and, given
a ``pool`` (:class:`~repro.parallel.pool.WorkerPool`), fans out in chunks over
its workers.  The structural experiments (E5, E7, E8) draw their instances
from the same registry memo.
"""

from __future__ import annotations

import time
from typing import Callable

from ..analysis import fit_against_model, set_builder_lookup_bound
from ..backend.array_syndrome import ArraySyndrome
from ..core.faults import random_faults
from ..core.partitions import class_certifies_when_fault_free, minimal_certifying_level
from ..core.set_builder import set_builder
from ..core.syndrome import syndrome_table_size
from ..diagnosability import chang_condition, exact_diagnosability, min_degree_upper_bound
from ..networks.registry import FAMILIES, cached_network, compiled_network
from ..parallel import WorkerPool
from ..workloads.sweeps import (
    CUBE_VARIANT_INSTANCES,
    DISTRIBUTED_LOSS_RATES,
    DISTRIBUTED_ROOT_COUNTS,
    KARY_INSTANCES,
    PERMUTATION_INSTANCES,
)
from .reporting import ExperimentReport, _md_cell  # noqa: F401  (re-export shim)
from .trials import DistributedTrialSpec, TrialPlan, TrialSpec

__all__ = ["ExperimentReport", "EXPERIMENTS", "run_experiment", "run_all"]


# --------------------------------------------------------------------------- E1
def run_e1(*, dimensions: tuple[int, ...] = (7, 8, 9, 10, 11), seed: int = 0,
           pool: WorkerPool | None = None) -> ExperimentReport:
    """E1 (Theorem 2): exactness and O(n·2^n) scaling on hypercubes.

    A ``pool`` switches the sweep to *pooled mode*: the trial table fans
    out in chunks over that persistent shared-memory worker pool
    (:class:`~repro.parallel.pool.WorkerPool`), with every topology compiled
    once in the coordinator and mapped zero-copy by the workers.  The rows
    are bit-identical to the serial run — only wall-clock distribution
    changes — and the report's notes carry the zero-recompilation evidence.
    """
    start = time.perf_counter()
    plan = TrialPlan(
        TrialSpec(label=f"Q_{n}", family="hypercube", params=(("dimension", n),),
                  placement="random", fault_count=n, seed=seed + n)
        for n in dimensions
    )
    results = plan.run(pool=pool)
    rows, models, times, lookups = [], [], [], []
    all_exact = True
    for n, res in zip(dimensions, results):
        all_exact &= res.exact
        models.append(n * 2**n)
        times.append(res.elapsed_seconds)
        lookups.append(res.lookups)
        rows.append((res.spec.label, res.num_nodes, res.num_faults, res.exact,
                     res.lookups, round(res.elapsed_seconds * 1e3, 2)))
    # The deterministic scaling gate: syndrome lookups, the work the
    # n·2^n bound counts, in every mode.
    lookup_fit = fit_against_model(models, lookups)
    claims = (all_exact
              and all(count <= model for count, model in zip(lookups, models))
              and lookup_fit.exponent <= 1.35)
    lookup_note = (
        "lookups vs the paper's n·2^n model: at most "
        f"{max(c / m for c, m in zip(lookups, models)):.2f}·n·2^n per row, "
        f"fitted exponent {lookup_fit.exponent:.2f} "
        f"(R^2 = {lookup_fit.r_squared:.3f}).  "
    )
    if plan.last_run_stats is None:
        fit = fit_against_model(models, times)
        claims &= fit.exponent <= 1.35
        scaling_note = lookup_note + (
            f"Time vs n·2^n: fitted exponent {fit.exponent:.2f} "
            f"(R^2 = {fit.r_squared:.3f}), an upper-bound check only: at these "
            "sizes fixed per-call costs dominate the time, so a flat time "
            "passes it."
        )
    else:
        # Pooled per-trial timings include worker cold-start (fork, first
        # attachment, row materialisation), which swamps the n·2^n signal —
        # the time gate only means something serial, so pooled mode adds
        # the zero-recompilation evidence instead.
        stats = plan.last_run_stats
        claims &= stats["worker_compiles"] == 0
        scaling_note = lookup_note + (
            "Time fit not gated in pooled mode (pooled timings carry worker "
            f"cold-start noise).  Pooled "
            f"mode: {stats['chunks']} chunks over {len(stats['workers'])} "
            f"workers, {stats['worker_compiles']} worker-side topology "
            "compilations (shared-memory CSR)."
        )
    return ExperimentReport(
        "E1",
        "hypercube diagnosis, |F| = n (Theorem 2)",
        ["network", "N", "faults", "exact", "lookups", "time (ms)"],
        rows,
        claims,
        notes=scaling_note,
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E2
def run_e2(*, seed: int = 2, pool: WorkerPool | None = None) -> ExperimentReport:
    """E2 (Theorem 3): the hypercube variants."""
    start = time.perf_counter()
    plan = TrialPlan.from_factors(
        CUBE_VARIANT_INSTANCES, placements=("random", "clustered"), seeds=(seed,)
    )
    rows = []
    all_exact = True
    for res in plan.run(pool=pool):
        all_exact &= res.exact
        rows.append((res.spec.label, res.spec.scenario, res.num_nodes, res.delta,
                     res.exact, res.lookups, round(res.elapsed_seconds * 1e3, 2)))
    return ExperimentReport(
        "E2",
        "hypercube variants, |F| = δ (Theorem 3)",
        ["variant", "scenario", "N", "δ", "exact", "lookups", "time (ms)"],
        rows,
        all_exact,
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E3
def run_e3(*, seed: int = 5, pool: WorkerPool | None = None) -> ExperimentReport:
    """E3 (Theorem 4): k-ary n-cubes and augmented k-ary n-cubes."""
    start = time.perf_counter()
    plan = TrialPlan.from_factors(KARY_INSTANCES, seeds=(seed,))
    rows = []
    all_exact = True
    for res in plan.run(pool=pool):
        all_exact &= res.exact
        rows.append((res.spec.label, res.num_nodes, res.delta, res.exact,
                     res.lookups, round(res.elapsed_seconds * 1e3, 2)))
    return ExperimentReport(
        "E3",
        "k-ary n-cubes and augmented k-ary n-cubes, |F| = δ (Theorem 4)",
        ["instance", "N", "δ", "exact", "lookups", "time (ms)"],
        rows,
        all_exact,
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E4
def run_e4(*, seed: int = 7, pool: WorkerPool | None = None) -> ExperimentReport:
    """E4 (Theorems 5–7): permutation-based families."""
    start = time.perf_counter()
    plan = TrialPlan.from_factors(PERMUTATION_INSTANCES, seeds=(seed,))
    rows = []
    all_exact = True
    for res in plan.run(pool=pool):
        all_exact &= res.exact
        rows.append((res.spec.label, res.num_nodes, res.delta, res.exact,
                     res.used_fallback, res.lookups,
                     round(res.elapsed_seconds * 1e3, 2)))
    return ExperimentReport(
        "E4",
        "(n,k)-stars, stars, pancakes, arrangement graphs, |F| = δ (Theorems 5-7)",
        ["instance", "N", "δ", "exact", "fallback probing", "lookups", "time (ms)"],
        rows,
        all_exact,
        notes=("'fallback probing' = the driver could not rely on the paper's class "
               "counting (notably the arrangement graphs, where k(n-k)+1 classes of "
               "sufficient size do not exist) and used budgeted unrestricted probes "
               "instead; exactness is unaffected."),
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E5
def run_e5(*, seed: int = 13) -> ExperimentReport:
    """E5 (Sections 4.2/6): syndrome-lookup accounting for the final run."""
    start = time.perf_counter()
    instances = {
        "Q_10": ("hypercube", {"dimension": 10}),
        "CQ_10": ("crossed_cube", {"dimension": 10}),
        "AQ_9": ("augmented_cube", {"dimension": 9}),
        "Q^8_3": ("kary_ncube", {"n": 3, "k": 8}),
        "S_7": ("star", {"n": 7}),
        "P_7": ("pancake", {"n": 7}),
    }
    rows = []
    claims = True
    for label, (family, params) in instances.items():
        network, csr = compiled_network(family, **params)
        delta = network.diagnosability()
        faults = random_faults(network, delta, seed=seed)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
        root = next(v for v in range(network.num_nodes) if v not in faults)
        syndrome.reset_lookups()
        result = set_builder(network, syndrome, root, diagnosability=delta)
        bound = set_builder_lookup_bound(csr.max_degree, result.size)
        root_tests = csr.max_degree * (csr.max_degree - 1) / 2
        table = syndrome_table_size(network)
        within_bound = result.lookups <= bound + root_tests
        far_below_table = result.lookups < table / 2
        claims &= within_bound and far_below_table
        rows.append((label, result.lookups, int(bound), table,
                     f"{100 * result.lookups / table:.1f}%", within_bound))
    return ExperimentReport(
        "E5",
        "Set_Builder lookup accounting vs the (Δ-1)(Δ/2+|U_r|-1) bound and the full table",
        ["instance", "lookups", "Section 6 bound", "full table", "fraction of table",
         "within bound"],
        rows,
        claims,
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E6
def run_e6(*, dimensions: tuple[int, ...] = (8, 9, 10), seed: int = 17,
           pool: WorkerPool | None = None) -> ExperimentReport:
    """E6 (Sections 3/6): Stewart vs Yang vs extended-star on identical syndromes."""
    start = time.perf_counter()
    plan = TrialPlan.from_factors(
        [(f"Q_{n}", "hypercube", {"dimension": n}) for n in dimensions],
        seeds=(seed,),
        algorithms=("stewart", "yang", "extended_star"),
    )
    results = plan.run(pool=pool)
    rows = []
    claims = True
    by_dim: dict[str, dict[str, tuple[bool, int]]] = {}
    for res in results:
        table = syndrome_table_size(cached_network(res.spec.family, **res.spec.network_kwargs))
        rows.append((res.spec.label, res.spec.algorithm, res.exact, res.lookups,
                     f"{100 * res.lookups / table:.1f}%",
                     round(res.elapsed_seconds * 1e3, 2)))
        by_dim.setdefault(res.spec.label, {})[res.spec.algorithm] = (res.exact, res.lookups)
    for measurements in by_dim.values():
        stewart_exact, stewart_lookups = measurements["stewart"]
        extended_exact, extended_lookups = measurements["extended_star"]
        claims &= stewart_exact and extended_exact and measurements["yang"][0]
        claims &= stewart_lookups * 2 < extended_lookups
    return ExperimentReport(
        "E6",
        "algorithm comparison on identical hypercube syndromes, |F| = n",
        ["network", "algorithm", "exact", "lookups", "table read", "time (ms)"],
        rows,
        claims,
        notes=("Claim checked: every algorithm is exact and the paper's algorithm reads "
               "well under half the entries the extended-star comparator reads."),
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E7
def run_e7(*, families: tuple[str, ...] = ("hypercube", "crossed_cube", "folded_hypercube",
                                           "augmented_cube", "kary_ncube", "star",
                                           "pancake", "nk_star", "arrangement")
           ) -> ExperimentReport:
    """E7: diagnosability bounds (min-degree bound, Chang et al. condition)."""
    start = time.perf_counter()
    rows = []
    claims = True
    for family in families:
        spec = FAMILIES[family]
        network = cached_network(family, **spec.small)
        quoted = network.diagnosability()
        upper = min_degree_upper_bound(network)
        report = chang_condition(network)
        consistent = quoted <= upper and (not report.applies or
                                          report.implied_diagnosability == quoted)
        claims &= consistent
        rows.append((family, network.num_nodes, quoted, upper, report.applies, consistent))
    # Exhaustive check on a graph small enough to brute-force.
    import networkx as nx

    from ..networks import ExplicitNetwork

    petersen = ExplicitNetwork.from_networkx(nx.petersen_graph())
    exact = exact_diagnosability(petersen)
    chang = chang_condition(petersen, connectivity=3)
    claims &= exact == 3 and chang.implied_diagnosability == 3
    rows.append(("petersen (exhaustive)", 10, exact, min_degree_upper_bound(petersen),
                 chang.applies, exact == chang.implied_diagnosability))
    return ExperimentReport(
        "E7",
        "diagnosability: quoted value vs min-degree bound and Chang et al. [6]",
        ["family", "N", "quoted δ", "min-degree bound", "Chang applies", "consistent"],
        rows,
        claims,
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E8
def run_e8(*, dimensions: tuple[int, ...] = (7, 8, 9, 10, 11, 12)) -> ExperimentReport:
    """E8 (ablation): the paper's class size vs the certificate requirement."""
    start = time.perf_counter()
    rows = []
    claims = True
    for n in dimensions:
        cube = cached_network("hypercube", dimension=n)
        level0 = cube.partition_scheme(0).first(1)[0]
        certifies = class_certifies_when_fault_free(cube, level0)
        min_level = minimal_certifying_level(cube)
        rows.append((f"Q_{n}", n, level0.size, certifies,
                     2 * level0.size, min_level))
        claims &= (not certifies) and min_level == 1
    return ExperimentReport(
        "E8",
        "certificate ablation: paper's minimal sub-cube vs the size the certificate needs",
        ["network", "δ", "paper class size (2^m > δ)", "certifies fault-free",
         "required class size", "escalations needed"],
        rows,
        claims,
        notes=("Reproduction finding: a fault-free Set_Builder tree on Q_m has exactly "
               "2^(m-1) internal nodes, so the paper's choice 2^m > δ never reaches the "
               "'> δ contributors' certificate; one doubling (2^m > 2δ) always does. The "
               "driver's automatic escalation absorbs the gap at negligible cost."),
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------- E9
def run_e9(*, dimensions: tuple[int, ...] = (8, 9, 10), seed: int = 31,
           pool: WorkerPool | None = None,
           loss_rates: tuple[float, ...] = DISTRIBUTED_LOSS_RATES,
           root_counts: tuple[int, ...] = DISTRIBUTED_ROOT_COUNTS,
           latency: str = "fixed:1") -> ExperimentReport:
    """E9 (further research): the protocol engine vs extended-star gossip.

    Every row is one :class:`~repro.experiments.trials.DistributedTrialSpec`
    run on the event-driven engine — real invitations, acceptances and
    convergecast reports — with the extended-star dissemination flooded over
    the *same* channel model as the comparator.  The sweep covers the
    engine's axes: loss rate × concurrent-root count (plus the latency
    distribution knob, fixed per call).

    Claims checked: on the reliable channel the protocol finds every
    injected fault with fewer messages than the gossip comparator needs;
    under message loss every run still terminates (the ARQ sublayer) and no
    fault-free node is ever accused.
    """
    start = time.perf_counter()
    plan = TrialPlan.from_factors(
        [(f"Q_{n}", "hypercube", {"dimension": n}) for n in dimensions],
        spec=DistributedTrialSpec,
        seeds=(seed,),
        loss_rates=loss_rates,
        root_counts=root_counts,
        latencies=(latency,),
    )
    results = plan.run(pool=pool)
    rows = []
    claims = True
    for res in results:
        lossless = res.spec.loss_rate == 0.0 and res.spec.duplicate_rate == 0.0
        if lossless:
            claims &= res.exact and res.messages < res.gossip_messages
        else:
            claims &= res.false_positives == 0
        ratio = res.gossip_messages / res.messages if res.messages else float("inf")
        rows.append((res.spec.label, res.spec.loss_rate, res.spec.root_count,
                     res.rounds, res.messages, res.retries, res.faults_found,
                     res.false_positives, res.gossip_messages, f"{ratio:.1f}x"))
    return ExperimentReport(
        "E9",
        "distributed protocol engine vs extended-star data dissemination",
        ["network", "loss", "roots", "rounds", "messages", "retries",
         "faults found", "false pos", "gossip messages", "message ratio"],
        rows,
        claims,
        notes=("Both protocols run on the same event-driven engine and channel model "
               f"(latency {latency}); lossless rows must beat the gossip message "
               "count and diagnose exactly, lossy rows must terminate without "
               "accusing any fault-free node."),
        elapsed_seconds=time.perf_counter() - start,
    )


EXPERIMENTS: dict[str, Callable[..., ExperimentReport]] = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
}


def run_experiment(name: str, **kwargs) -> ExperimentReport:
    """Run one experiment by name (``"E1"`` .. ``"E9"``)."""
    key = name.upper()
    if key not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key](**kwargs)


def run_all(**kwargs) -> list[ExperimentReport]:
    """Run every experiment in order."""
    return [runner(**kwargs.get(name.lower(), {})) for name, runner in EXPERIMENTS.items()]
