"""Tests for the batched TrialPlan experiment machinery."""

from __future__ import annotations

from itertools import product

import pytest

from repro.experiments.trials import (
    ALGORITHMS,
    PLACEMENTS,
    DistributedTrialSpec,
    TrialPlan,
    TrialSpec,
)
from repro.networks.registry import cached_network
from repro.parallel import WorkerPool


def _hypercube_instances(dims):
    return [(f"Q_{n}", "hypercube", {"dimension": n}) for n in dims]


class TestFactorProduct:
    def test_table_size_is_product_of_factors(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7, 8)),
            placements=("random", "clustered"),
            seeds=(0, 1, 2),
        )
        assert len(plan) == 2 * 2 * 3

    def test_row_order_varies_innermost_factor_fastest(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7,)),
            placements=("random",),
            algorithms=("stewart", "yang"),
        )
        assert [t.algorithm for t in plan.trials] == ["stewart", "yang"]

    def test_distributed_row_order_follows_the_axes(self):
        axes = {
            "placements": ("random", "clustered"),
            "latencies": ("fixed:1", "uniform:1:2"),
            "loss_rates": (0.0, 0.1),
            "duplicate_rates": (0.0, 0.05),
            "root_counts": (1, 2),
        }
        plan = TrialPlan.from_factors(
            _hypercube_instances((6,)), spec=DistributedTrialSpec,
            gossip_radius=2, **axes,
        )
        rows = [(t.placement, t.latency, t.loss_rate, t.duplicate_rate, t.root_count)
                for t in plan.trials]
        assert rows == list(product(*axes.values()))
        assert all(type(t) is DistributedTrialSpec for t in plan.trials)
        assert {t.gossip_radius for t in plan.trials} == {2}

    def test_factor_the_spec_lacks_is_rejected(self):
        with pytest.raises(TypeError, match="algorithms"):
            TrialPlan.from_factors(
                _hypercube_instances((6,)), spec=DistributedTrialSpec,
                algorithms=("stewart",),
            )
        with pytest.raises(TypeError, match="loss_rates"):
            TrialPlan.from_factors(_hypercube_instances((6,)), loss_rates=(0.1,))

    def test_scenario_names_match_sweep_convention(self):
        spec = TrialSpec("Q_7", "hypercube", (("dimension", 7),), placement="clustered")
        assert spec.scenario == "clustered-max"
        spec = TrialSpec("Q_7", "hypercube", (("dimension", 7),), fault_count=3)
        assert spec.scenario == "random-3"

    def test_groups_are_per_topology(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7, 8)), placements=("random", "clustered")
        )
        groups = plan.groups()
        assert len(groups) == 2
        assert all(len(group) == 2 for group in groups)


class TestExecution:
    def test_trials_are_exact_and_ordered(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7, 8)), placements=("random", "clustered"), seeds=(3,)
        )
        results = plan.run()
        assert [r.spec for r in results] == plan.trials
        assert all(r.exact for r in results)
        assert all(r.lookups > 0 for r in results)
        assert all(r.num_faults == r.delta for r in results)

    def test_shared_instance_comes_from_registry(self):
        plan = TrialPlan.from_factors(_hypercube_instances((7,)))
        result = plan.run()[0]
        network = cached_network("hypercube", dimension=7)
        assert result.num_nodes == network.num_nodes
        # The registry instance carries the compiled adjacency built by the run.
        assert getattr(network, "_csr_adjacency", None) is not None

    def test_algorithm_factor_runs_baselines(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7,)), algorithms=ALGORITHMS
        )
        results = plan.run()
        assert [r.spec.algorithm for r in results] == list(ALGORITHMS)
        assert all(r.exact for r in results)
        stewart, _, extended = results
        assert stewart.lookups * 2 < extended.lookups

    def test_unknown_algorithm_rejected(self):
        plan = TrialPlan([TrialSpec("Q_7", "hypercube", (("dimension", 7),),
                                    algorithm="oracle")])
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan.run()

    def test_fallback_flag_reflects_partition_level(self):
        plan = TrialPlan.from_factors([("A_5,2", "arrangement", {"n": 5, "k": 2})])
        result = plan.run()[0]
        assert result.exact
        # Arrangement graphs lack enough large classes: driver falls back.
        assert result.used_fallback

    @pytest.mark.slow
    def test_parallel_execution_matches_inline(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7, 8)), placements=("random", "clustered")
        )
        inline = plan.run()
        with WorkerPool(max_workers=2) as pool:
            parallel = plan.run(pool=pool)
        assert [(r.spec, r.exact, r.lookups) for r in inline] == \
               [(r.spec, r.exact, r.lookups) for r in parallel]


class TestPlacements:
    def test_every_registered_placement_runs(self):
        plan = TrialPlan.from_factors(
            _hypercube_instances((7,)), placements=tuple(PLACEMENTS)
        )
        results = plan.run()
        assert all(r.exact for r in results)
