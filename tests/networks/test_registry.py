"""Tests for the network registry and the structural property checks."""

from __future__ import annotations

import inspect

import networkx as nx
import pytest

from repro.networks import (
    FAMILIES,
    available_families,
    check_partition,
    create_network,
    default_instances,
    verify_theorem1_preconditions,
)


class TestRegistry:
    def test_all_paper_families_registered(self):
        from repro.networks import EXTENSION_FAMILIES, PAPER_FAMILIES

        assert len(PAPER_FAMILIES) == 14
        assert set(PAPER_FAMILIES).issubset(FAMILIES)
        assert set(EXTENSION_FAMILIES).issubset(FAMILIES)
        assert set(available_families()) == set(FAMILIES)

    def test_create_network_by_name(self):
        net = create_network("hypercube", dimension=6)
        assert net.num_nodes == 64

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown network family"):
            create_network("mesh")

    def test_small_instances_constructible(self):
        instances = default_instances("small")
        assert len(instances) == len(FAMILIES)
        for name, net in instances.items():
            assert net.num_nodes >= 16, name
            # The quoted diagnosability applies to every registry instance.
            assert net.diagnosability() >= 1

    def test_medium_instances_constructible(self):
        instances = default_instances("medium")
        for name, net in instances.items():
            assert net.num_nodes >= 120, name

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            default_instances("huge")

    @pytest.mark.parametrize("size", ["small", "medium"])
    def test_node_count_formula_matches_the_instance(self, size):
        for name, net in default_instances(size).items():
            params = getattr(FAMILIES[name], size)
            assert FAMILIES[name].node_count(**params) == net.num_nodes, name

    @pytest.mark.parametrize("size", ["small", "medium"])
    def test_degree_formula_matches_the_built_maximum_degree(self, size):
        from repro.backend.csr import compile_network

        for name, net in default_instances(size).items():
            spec = FAMILIES[name]
            params = getattr(spec, size)
            csr = compile_network(net)
            degree = spec.degree(**params)
            assert degree == csr.max_degree == net.max_degree, name
            # Every family is regular, so the size check's slot count is exact.
            nodes = spec.node_count(**params)
            assert nodes * degree * (degree - 1) // 2 == csr.num_pairs, name

    def test_node_count_accepts_every_constructor_parameter(self):
        """A formula never refuses what its constructor accepts, so a
        ``TypeError`` from it always means a request the constructor
        refuses too (the size check may then skip it safely)."""
        for name, spec in FAMILIES.items():
            params = dict(spec.small)
            signature = inspect.signature(spec.constructor)
            for parameter in signature.parameters.values():
                if parameter.default is not parameter.empty:
                    params.setdefault(parameter.name, parameter.default)
            net = spec.constructor(**params)
            assert spec.node_count(**params) == net.num_nodes, name
            assert spec.degree(**params) == net.max_degree, name

    def test_node_count_stays_small_for_hostile_parameters(self):
        # Clamped: a huge parameter gives a count past any bound, not a
        # huge integer.
        huge = 10 ** 4000
        for name, params in [
            ("hypercube", {"dimension": huge}),
            ("kary_ncube", {"n": huge, "k": huge}),
            ("star", {"n": huge}),
            ("arrangement", {"n": huge, "k": huge}),
        ]:
            count = FAMILIES[name].node_count(**params)
            assert 1 << 64 <= count and count.bit_length() <= 1 << 13, name

    def test_specs_carry_paper_theorem(self):
        from repro.networks import PAPER_FAMILIES

        for name, spec in FAMILIES.items():
            if name in PAPER_FAMILIES:
                assert spec.paper_theorem.startswith("Theorem")
            else:
                assert "extension" in spec.paper_theorem


class TestBoundedNetworkCache:
    """The registry memo is the service's bounded LRU (no unbounded growth)."""

    def setup_method(self):
        from repro.networks.registry import clear_network_cache

        clear_network_cache()

    def teardown_method(self):
        from repro.networks.registry import (
            DEFAULT_NETWORK_CACHE_CAPACITY,
            clear_network_cache,
            set_network_cache_capacity,
        )

        set_network_cache_capacity(DEFAULT_NETWORK_CACHE_CAPACITY)
        clear_network_cache()

    def test_cached_network_shares_one_instance(self):
        from repro.networks.registry import cached_network

        first = cached_network("hypercube", dimension=5)
        second = cached_network("hypercube", dimension=5)
        assert first is second

    def test_cache_stats_accessor(self):
        from repro.networks.registry import cache_stats, cached_network

        before = cache_stats()
        cached_network("hypercube", dimension=5)
        cached_network("hypercube", dimension=5)
        after = cache_stats()
        assert after.hits - before.hits == 1
        assert after.misses - before.misses == 1
        assert after.capacity >= 1

    def test_capacity_bound_evicts_least_recent(self):
        from repro.networks.registry import (
            cache_stats,
            cached_network,
            set_network_cache_capacity,
        )

        set_network_cache_capacity(2)
        q5 = cached_network("hypercube", dimension=5)
        cached_network("star", n=5)
        cached_network("hypercube", dimension=5)  # refresh: star becomes LRU
        cached_network("pancake", n=4)  # evicts star
        evictions_before = cache_stats().evictions
        assert cached_network("hypercube", dimension=5) is q5  # survived
        assert cache_stats().evictions == evictions_before
        assert cache_stats().size == 2

    def test_clear_network_cache_semantics_preserved(self):
        from repro.networks.registry import cached_network, clear_network_cache

        first = cached_network("hypercube", dimension=5)
        clear_network_cache()
        second = cached_network("hypercube", dimension=5)
        assert first is not second  # a cleared memo rebuilds from scratch


class TestPropertyChecks:
    def test_theorem1_preconditions_on_small_families(self, tiny_network):
        compute = tiny_network.num_nodes <= 256
        report = verify_theorem1_preconditions(tiny_network, compute_connectivity=compute)
        assert report.regular
        assert report.satisfies_theorem1
        if compute:
            assert report.connectivity_measured == report.connectivity_claimed

    def test_report_row_shape(self, q5):
        report = verify_theorem1_preconditions(q5, compute_connectivity=False)
        row = report.as_row()
        assert row[0] == "hypercube"
        assert row[1] == 32
        assert len(row) == 8

    def test_check_partition_detects_bad_size(self, q5):
        scheme = q5.partition_scheme()
        # Tamper with the advertised size of the first class.
        bad = list(scheme)
        object.__setattr__(bad[0], "size", bad[0].size + 1)
        from repro.networks.base import PartitionScheme

        tampered = PartitionScheme(bad, num_classes=scheme.num_classes,
                                   class_size=scheme.class_size)
        with pytest.raises(AssertionError, match="size"):
            check_partition(q5, tampered, max_classes=1)

    def test_check_partition_accepts_valid_scheme(self, q5):
        check_partition(q5, q5.partition_scheme())

    def test_partition_covers_all_nodes(self, small_network):
        try:
            scheme = small_network.partition_scheme()
        except ValueError:
            pytest.skip("no partition scheme for this instance")
        if small_network.num_nodes > 1500:
            pytest.skip("too large for the exhaustive coverage check")
        check_partition(small_network, scheme)
