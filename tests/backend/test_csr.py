"""Property tests for the compiled CSR topology backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import CSRAdjacency, compile_network
from repro.networks import ExplicitNetwork
from repro.networks.registry import cached_network, compiled_network

from ..conftest import ALL_FAMILIES, cached_network as tiny_cached_network


class TestRowsMatchNeighbors:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_rows_equal_sorted_neighbors_for_every_family(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        assert csr.num_nodes == network.num_nodes
        for v in range(network.num_nodes):
            expected = sorted(network.neighbors(v))
            assert list(csr.rows[v]) == expected
            assert csr.neighbors(v).tolist() == expected
            assert csr.degree(v) == len(expected)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_degree_extremes_match(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        assert csr.max_degree == network.max_degree
        assert csr.min_degree == network.min_degree


class TestHasEdge:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bisect_matches_adjacency(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        neighbor_sets = [set(network.neighbors(v)) for v in range(network.num_nodes)]
        probe = range(0, network.num_nodes, max(1, network.num_nodes // 16))
        for u in probe:
            for v in probe:
                if u == v:
                    continue
                assert csr.has_edge(u, v) == (v in neighbor_sets[u])

    def test_network_has_edge_routes_through_backend(self):
        network = ExplicitNetwork([(1, 2), (0, 2), (0, 1), ()])
        assert network.has_edge(0, 1) and network.has_edge(2, 0)
        assert not network.has_edge(0, 3) and not network.has_edge(3, 1)
        # The compiled form was cached on the instance by the first call.
        assert getattr(network, "_csr_adjacency", None) is not None


class TestMemoization:
    def test_compile_is_idempotent_per_instance(self, q5):
        assert compile_network(q5) is compile_network(q5)

    def test_compile_accepts_compiled(self, q5):
        csr = compile_network(q5)
        assert compile_network(csr) is csr

    def test_registry_shares_instances_and_compiled_topology(self):
        a = cached_network("hypercube", dimension=6)
        b = cached_network("hypercube", dimension=6)
        assert a is b
        net, csr = compiled_network("hypercube", dimension=6)
        assert net is a
        assert csr is compile_network(a)


class TestPairLayout:
    def test_pair_counts(self, q5):
        csr = compile_network(q5)
        assert csr.num_pairs == sum(
            d * (d - 1) // 2 for d in (csr.degree(v) for v in range(csr.num_nodes))
        )

    def test_slots_enumerate_sorted_neighbor_pairs(self, q5):
        from repro.backend import ArraySyndrome

        csr = compile_network(q5)
        tests = [key for key, _ in ArraySyndrome(csr, bytes(csr.num_pairs)).items()]
        assert len(tests) == csr.num_pairs
        for u in range(csr.num_nodes):
            lo, hi = int(csr.pair_indptr[u]), int(csr.pair_indptr[u + 1])
            row = csr.rows[u]
            expected = [(u, row[i], row[j]) for i in range(len(row))
                        for j in range(i + 1, len(row))]
            assert tests[lo:hi] == expected

    def test_row_addresses_concatenate_rows(self, q5):
        csr = compile_network(q5)
        nodes = np.array([7, 0, 31, 7])
        addr, counts = csr.row_addresses(nodes)
        assert counts.tolist() == [csr.degree(int(v)) for v in nodes]
        assert csr.indices[addr].tolist() == [
            w for v in nodes.tolist() for w in csr.rows[v]
        ]


def _brute_boundary(network, members: set[int]) -> set[int]:
    return {nb for u in members for nb in network.neighbors(u) if nb not in members}


class TestBoundary:
    """The complement-side boundary against a brute-force neighbour scan."""

    @staticmethod
    def _member_sets(n: int, seed: int) -> list[set[int]]:
        rng = np.random.default_rng(seed)
        sets = [set(), set(range(n)), {0}, {n - 1}]
        for size in (1, n // 3, n // 2, n - 2):
            sets.append(set(rng.choice(n, size=size, replace=False).tolist()))
        return sets

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_bruteforce_on_every_family(self, family):
        network = tiny_cached_network(family, "tiny")
        csr = compile_network(network)
        n = network.num_nodes
        member_sets = self._member_sets(n, seed=len(family))
        masks = np.zeros((len(member_sets), n), dtype=bool)
        for row, members in zip(masks, member_sets):
            row[list(members)] = True
        expected = [_brute_boundary(network, members) for members in member_sets]
        assert csr.boundary_many(masks) == expected
        for members, mask, brute in zip(member_sets, masks, expected):
            assert csr.boundary(members) == brute
            assert csr.boundary(iter(sorted(members))) == brute
            assert csr.boundary(mask) == brute
            assert csr.boundary_many(mask[np.newaxis]) == [brute]

    def test_empty_members(self, q5):
        assert compile_network(q5).boundary(set()) == set()

    def test_single_node_boundary_is_its_row(self, q5):
        csr = compile_network(q5)
        for v in (0, 13, 31):
            assert csr.boundary({v}) == set(csr.rows[v])

    def test_rejects_mask_of_wrong_length(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="boolean stack"):
            csr.boundary(np.zeros(csr.num_nodes + 1, dtype=bool))


class TestValidation:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            CSRAdjacency([0, 2], [1])
