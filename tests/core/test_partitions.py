"""Tests for the partition-probing utilities (and the certificate-threshold gap)."""

from __future__ import annotations

import pytest

from repro.core.diagnosis import GeneralDiagnoser
from repro.core.partitions import (
    class_certifies_when_fault_free,
    minimal_certifying_level,
)
from repro.networks import Hypercube


class TestProbePlan:
    """The partition levels the diagnoser's root search probes."""

    def test_at_most_delta_plus_one_classes(self):
        cube = Hypercube(9)
        for level in GeneralDiagnoser(cube)._probe_levels():
            assert len(level.classes) <= cube.diagnosability() + 1

    def test_classes_are_distinct(self):
        cube = Hypercube(9)
        for level in GeneralDiagnoser(cube)._probe_levels():
            representatives = [cls.representative for cls in level.classes]
            assert len(set(representatives)) == len(representatives)


class TestCertificateThreshold:
    @pytest.mark.parametrize("n", [7, 9, 12])
    def test_paper_choice_does_not_certify(self, n):
        """The paper's minimal sub-cube (2^m > n) never reaches
        the contributor certificate — its fault-free Set_Builder tree has only
        2^(m-1) ≤ n internal nodes."""
        cube = Hypercube(n)
        cls = cube.partition_scheme(0).first(1)[0]
        assert cls.size <= 2 * n  # the paper's minimal choice
        assert not class_certifies_when_fault_free(cube, cls)

    @pytest.mark.parametrize("n", [7, 9, 12])
    def test_one_level_coarser_certifies(self, n):
        """Doubling the sub-cube (2^m > 2n) restores the certificate."""
        cube = Hypercube(n)
        level = minimal_certifying_level(cube)
        assert level == 1
        cls = cube.partition_scheme(level).first(1)[0]
        assert class_certifies_when_fault_free(cube, cls)

    def test_fault_free_subcube_contributors_are_half_the_class(self):
        """On a fault-free sub-cube the builder tree has exactly 2^(m-1) internal nodes."""
        from repro.core.set_builder import set_builder
        from repro.core.syndrome import generate_syndrome

        cube = Hypercube(10)
        for level in (0, 1, 2):
            cls = cube.partition_scheme(level).first(1)[0]
            result = set_builder(
                cube, generate_syndrome(cube, ()), cls.representative,
                restrict=cls.contains,
            )
            assert len(result.contributors) == cls.size // 2

    def test_minimal_certifying_level_none_when_impossible(self):
        # SQ_6's only admissible classes have 4 nodes < δ = 6: never certifies.
        from repro.networks import ShuffleCube

        assert minimal_certifying_level(ShuffleCube(6)) is None

    @pytest.mark.parametrize("family", ["star", "pancake", "nk_star"])
    def test_permutation_families_certify_at_level0(self, family):
        from ..conftest import cached_network

        network = cached_network(family, "small")
        cls = network.partition_scheme(0).first(1)[0]
        assert class_certifies_when_fault_free(network, cls)
