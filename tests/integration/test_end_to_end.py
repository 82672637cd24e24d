"""Integration tests: full pipelines across modules.

These tests exercise the complete flow the examples and benchmarks rely on —
topology → fault injection → syndrome generation → diagnosis → verification —
and cross-validate the general algorithm against the baselines and against the
exhaustive ground truth on instances small enough to afford it.
"""

from __future__ import annotations

import pytest

from repro import (
    GeneralDiagnoser,
    certificate_node_budget,
    diagnose,
    generate_syndrome,
    random_faults,
    scenario_suite,
    syndrome_table_size,
)
from repro.analysis import set_builder_lookup_bound
from repro.baselines import ExhaustiveDiagnoser, ExtendedStarDiagnoser, YangCycleDiagnoser
from repro.core.verification import is_consistent_fault_set
from repro.distributed import ProtocolEngine
from repro.networks import Hypercube, KAryNCube, PancakeGraph, StarGraph

from ..conftest import ALL_FAMILIES, cached_network


class TestScenarioSuiteAcrossZoo:
    """Every scenario of the standard battery is diagnosed exactly, zoo-wide."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_full_scenario_battery(self, family):
        network = cached_network(family, "small")
        for scenario in scenario_suite(network, seed=1):
            syndrome = generate_syndrome(network, scenario.faults, seed=1)
            result = diagnose(network, syndrome)
            assert result.faulty == scenario.faults, (family, scenario.name)


class TestCrossValidation:
    def test_three_algorithms_and_ground_truth_on_q6(self):
        cube = Hypercube(6)
        # δ of Q_6 is formally defined from n ≥ 5; use 4 faults and an
        # explicit bound so the exhaustive search stays affordable.
        faults = random_faults(cube, 4, seed=9)
        syndrome = generate_syndrome(cube, faults, seed=9)
        stewart = GeneralDiagnoser(cube, diagnosability=6).diagnose(syndrome).faulty
        yang = YangCycleDiagnoser(cube).diagnose(
            generate_syndrome(cube, faults, seed=9)).faulty
        extended = ExtendedStarDiagnoser(cube).diagnose(
            generate_syndrome(cube, faults, seed=9)).faulty
        exhaustive = ExhaustiveDiagnoser(cube, max_faults=4).diagnose(
            generate_syndrome(cube, faults, seed=9))
        assert stewart == yang == extended == exhaustive == faults

    @pytest.mark.parametrize("seed", range(4))
    def test_stewart_vs_exhaustive_on_pancake(self, seed):
        net = PancakeGraph(5)
        faults = random_faults(net, 3, seed=seed)
        syndrome = generate_syndrome(net, faults, seed=seed)
        stewart = diagnose(net, syndrome).faulty
        exhaustive = ExhaustiveDiagnoser(net, max_faults=3).diagnose(
            generate_syndrome(net, faults, seed=seed))
        assert stewart == exhaustive == faults

    def test_diagnosis_output_is_consistent_fault_set(self):
        net = KAryNCube(3, 6)
        faults = random_faults(net, 6, seed=2)
        syndrome = generate_syndrome(net, faults, seed=2)
        result = diagnose(net, syndrome)
        assert is_consistent_fault_set(net, syndrome, result.faulty)


class TestCostClaims:
    def test_lookups_well_below_full_table_across_zoo(self):
        """Section 6: the algorithm consults far fewer entries than the full table."""
        for family in ("hypercube", "crossed_cube", "star", "kary_ncube"):
            network = cached_network(family, "small")
            delta = network.diagnosability()
            faults = random_faults(network, delta, seed=4)
            syndrome = generate_syndrome(network, faults, seed=4)
            result = diagnose(network, syndrome)
            assert result.lookups < syndrome_table_size(network)

    def test_final_run_lookups_obey_section6_bound(self):
        cube = Hypercube(9)
        faults = random_faults(cube, 9, seed=5)
        syndrome = generate_syndrome(cube, faults, seed=5)
        result = diagnose(cube, syndrome)
        # The driver performs at most δ+1 probes (each bounded by the class
        # work) plus the final run; the total stays within a small multiple of
        # the Section 6 single-run bound.
        single_run_bound = set_builder_lookup_bound(cube.max_degree, len(result.healthy_nodes))
        assert result.lookups <= 3 * single_run_bound

    def test_certificate_budget_formula_is_sufficient(self):
        cube = Hypercube(8)
        budget = certificate_node_budget(8, 8)
        assert budget == 66
        faults = random_faults(cube, 8, seed=7)
        syndrome = generate_syndrome(cube, faults, seed=7)
        healthy_root = next(v for v in range(cube.num_nodes) if v not in faults)
        from repro.core.set_builder import set_builder

        result = set_builder(cube, syndrome, healthy_root, max_nodes=budget,
                             stop_on_certificate=True)
        assert result.all_healthy


class TestDistributedPipeline:
    def test_distributed_run_after_centralised_root_search(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=11)
        syndrome = generate_syndrome(cube, faults, seed=11)
        central = diagnose(cube, syndrome)
        stats = ProtocolEngine(cube).run_set_builder(
            generate_syndrome(cube, faults, seed=11), central.healthy_root)
        assert stats.faults_found == len(faults)
        assert stats.tree_size == len(central.healthy_nodes)


class TestSpanningTreeByProduct:
    def test_tree_usable_for_broadcast(self):
        """Section 6: the healthy spanning tree is a usable by-product."""
        import networkx as nx

        net = StarGraph(6)
        faults = random_faults(net, 5, seed=3)
        syndrome = generate_syndrome(net, faults, seed=3)
        result = diagnose(net, syndrome)
        tree = nx.Graph(list((p, c) for c, p in result.tree_parent.items()))
        tree.add_nodes_from(result.healthy_nodes)
        assert nx.is_tree(tree)
        assert set(tree.nodes()) == set(result.healthy_nodes)
