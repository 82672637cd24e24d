"""Tests for the ``Set_Builder`` procedure (paper Section 4.1)."""

from __future__ import annotations

import pytest

from repro.core.set_builder import certificate_node_budget, set_builder
from repro.core.syndrome import TableSyndrome, generate_syndrome
from repro.networks import Hypercube, StarGraph


def healthy_syndrome(network):
    return TableSyndrome.from_faults(network, ())


class TestFaultFreeGrowth:
    def test_covers_whole_hypercube(self, q7):
        result = set_builder(q7, healthy_syndrome(q7), 0)
        assert result.nodes == set(range(q7.num_nodes))
        assert result.all_healthy
        assert not result.truncated

    def test_tree_is_spanning_and_acyclic(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        # Every node except the root has exactly one parent, and following
        # parents always reaches the root: a spanning tree.
        assert set(result.parent) == set(range(1, q5.num_nodes))
        for v in range(1, q5.num_nodes):
            assert result.depth_of(v) >= 1
        assert result.depth_of(0) == 0

    def test_tree_edges_are_graph_edges(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        for parent, child in result.tree_edges():
            assert q5.has_edge(parent, child)

    def test_bfs_like_depths(self, q5):
        # On a fault-free hypercube the tree is a BFS tree: the depth of a
        # node equals its Hamming distance from the root.
        result = set_builder(q5, healthy_syndrome(q5), 0)
        for v in range(q5.num_nodes):
            assert result.depth_of(v) == q5.hamming_distance(0, v)

    def test_contributors_are_internal_nodes(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        internal = set(result.parent.values())
        assert result.contributors == internal

    def test_rounds_equal_eccentricity(self, q5):
        result = set_builder(q5, healthy_syndrome(q5), 0)
        assert result.rounds == 5  # eccentricity of a node in Q_5

    def test_works_from_any_root(self, q5):
        for root in (1, 17, 31):
            result = set_builder(q5, healthy_syndrome(q5), root)
            assert result.nodes == set(range(q5.num_nodes))
            assert result.root == root


class TestWithFaults:
    def test_healthy_root_never_collects_faulty_nodes(self, q7):
        faults = frozenset({1, 2, 64, 100, 40, 77, 13})
        syndrome = generate_syndrome(q7, faults, seed=0)
        result = set_builder(q7, syndrome, 0, diagnosability=7)
        assert result.nodes.isdisjoint(faults)

    def test_grown_set_contains_reachable_healthy_nodes(self, q7):
        faults = frozenset({1, 2, 64, 100, 40, 77, 13})
        syndrome = generate_syndrome(q7, faults, seed=0)
        result = set_builder(q7, syndrome, 0, diagnosability=7)
        # The healthy part of Q_7 minus 7 faults is still connected for this
        # fault set, so U_r is exactly the complement of the fault set.
        assert result.nodes == set(range(q7.num_nodes)) - faults

    @pytest.mark.parametrize("behavior", ["random", "all_zero", "all_one", "mimic", "anti_mimic"])
    def test_certificate_soundness(self, q7, behavior):
        """If all_healthy fires, the grown set truly contains no fault."""
        from repro.core.faults import random_faults

        for seed in range(5):
            faults = random_faults(q7, 7, seed=seed)
            syndrome = generate_syndrome(q7, faults, behavior=behavior, seed=seed)
            for root in (0, 3, 97):
                result = set_builder(q7, syndrome, root, diagnosability=7)
                if result.all_healthy:
                    assert result.nodes.isdisjoint(faults)

    def test_run_from_faulty_root_with_quiet_tester(self, q5):
        # A faulty root that always answers 0 invites all its neighbours, but
        # the certificate must not fire unless > δ contributors appear —
        # and if it fires, the grown set must be healthy (soundness).
        faults = frozenset({0, 1, 2})
        syndrome = generate_syndrome(q5, faults, behavior="all_zero", seed=0)
        result = set_builder(q5, syndrome, 0, diagnosability=5)
        if result.all_healthy:
            assert result.nodes.isdisjoint(faults)

    def test_surrounded_root_stays_alone(self, q5):
        # All neighbours of the root are faulty: U_1 may contain the (faulty)
        # neighbours only if some test returned 0; with honest "all one"
        # answers U_r = {root}.
        faults = frozenset(q5.neighbors(0))
        syndrome = generate_syndrome(q5, faults, behavior="all_one", seed=0)
        result = set_builder(q5, syndrome, 0, diagnosability=5)
        assert result.nodes == {0}
        assert not result.all_healthy


class TestRestriction:
    def test_restricted_run_stays_inside_class(self, q7):
        scheme = q7.partition_scheme()
        cls = scheme.first(1)[0]
        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, cls.representative, restrict=cls.contains)
        members = set(cls.members(q7))
        assert result.nodes == members

    def test_root_outside_restriction_rejected(self, q7):
        scheme = q7.partition_scheme()
        cls = scheme.first(2)[1]
        with pytest.raises(ValueError, match="must belong"):
            set_builder(q7, healthy_syndrome(q7), 0, restrict=cls.contains)

    def test_restricted_lookups_bounded_by_class(self, q7):
        scheme = q7.partition_scheme()
        cls = scheme.first(1)[0]
        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, cls.representative, restrict=cls.contains)
        delta = q7.max_degree
        assert result.lookups <= (delta - 1) * (delta / 2 + result.size - 1) + delta**2


class TestControls:
    def test_max_nodes_budget(self, q7):
        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, 0, max_nodes=20)
        assert result.size <= 20
        assert result.truncated

    def test_stop_on_certificate(self, q7):
        syndrome = healthy_syndrome(q7)
        full = set_builder(q7, syndrome, 0)
        early = set_builder(q7, healthy_syndrome(q7), 0, stop_on_certificate=True)
        assert early.all_healthy
        assert early.size <= full.size

    def test_certificate_budget_guarantees_certificate(self, q7):
        budget = certificate_node_budget(7, 7)
        result = set_builder(q7, healthy_syndrome(q7), 0, max_nodes=budget)
        assert result.all_healthy

    def test_invalid_root_rejected(self, q5):
        n = q5.num_nodes
        owner = [True] * n  # a restriction that indexes by node
        cls = next(iter(q5.partition_scheme()))
        # The range check comes first, before ``restrict`` sees the node.
        for u0, restrict in (
            (n + 3, None), (n, lambda v: owner[v]), (n, cls.contains),
        ):
            with pytest.raises(ValueError, match="not a node of the network"):
                set_builder(q5, healthy_syndrome(q5), u0, restrict=restrict)

    def test_default_diagnosability_taken_from_network(self, q7):
        result = set_builder(q7, healthy_syndrome(q7), 0)
        assert result.all_healthy  # δ defaulted to 7 and the certificate fired

    def test_lookups_counted_per_run(self, q7):
        syndrome = healthy_syndrome(q7)
        first = set_builder(q7, syndrome, 0)
        second = set_builder(q7, syndrome, 1)
        assert first.lookups > 0
        assert second.lookups > 0
        assert syndrome.lookups == first.lookups + second.lookups


class TestLookupAccounting:
    def test_section6_lookup_bound_on_hypercubes(self):
        """Measured lookups respect (Δ-1)(Δ/2 + |U_r| - 1) + Δ(Δ-1)/2."""
        for n in (6, 7, 8):
            cube = Hypercube(n)
            syndrome = healthy_syndrome(cube)
            result = set_builder(cube, syndrome, 0, diagnosability=n)
            bound = (n - 1) * (n / 2 + result.size - 1) + n * (n - 1) / 2
            assert result.lookups <= bound

    def test_lookup_bound_on_star_graph(self):
        star = StarGraph(5)
        syndrome = healthy_syndrome(star)
        result = set_builder(star, syndrome, 0, diagnosability=4)
        delta = star.max_degree
        bound = (delta - 1) * (delta / 2 + result.size - 1) + delta * (delta - 1) / 2
        assert result.lookups <= bound

    def test_far_fewer_lookups_than_full_table(self, q7):
        from repro.core.syndrome import syndrome_table_size

        syndrome = healthy_syndrome(q7)
        result = set_builder(q7, syndrome, 0)
        assert result.lookups < syndrome_table_size(q7) / 2
