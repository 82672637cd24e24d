"""Tests for the MM-model syndrome machinery."""

from __future__ import annotations

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.core.diagnosis import diagnose
from repro.core.faults import random_faults
from repro.core.syndrome import (
    FaultyTesterBehavior,
    TableSyndrome,
    generate_syndrome,
    syndrome_table_size,
)
from repro.core.verification import assert_mm_semantics
from repro.networks import Hypercube, StarGraph


class TestFaultyTesterBehavior:
    def test_known_names(self):
        for name in FaultyTesterBehavior.NAMES:
            assert FaultyTesterBehavior(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown faulty-tester behaviour"):
            FaultyTesterBehavior("chaotic")

    def test_fixed_behaviours(self):
        import random

        rng = random.Random(0)
        assert FaultyTesterBehavior("all_zero").result(0, 1, 2, 1, rng) == 0
        assert FaultyTesterBehavior("all_one").result(0, 1, 2, 0, rng) == 1
        assert FaultyTesterBehavior("mimic").result(0, 1, 2, 1, rng) == 1
        assert FaultyTesterBehavior("anti_mimic").result(0, 1, 2, 1, rng) == 0

    def test_random_behaviour_in_range(self):
        import random

        rng = random.Random(0)
        behaviour = FaultyTesterBehavior("random")
        values = {behaviour.result(0, 1, 2, 0, rng) for _ in range(64)}
        assert values == {0, 1}


BUILDS = {
    "reference": TableSyndrome.from_faults,
    "served": generate_syndrome,
}


@pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
class TestFromFaults:
    """The reference table and the served build answer alike."""

    def test_healthy_tester_reports_faulty_neighbours(self, build):
        cube = Hypercube(5)
        faults = {1, 3}
        syndrome = build(cube, faults)
        # Node 0 is healthy; its neighbours include 1 (faulty), 2 and 4 (healthy).
        assert syndrome.lookup(0, 1, 2) == 1
        assert syndrome.lookup(0, 2, 4) == 0

    def test_symmetric_in_the_tested_pair(self, build):
        cube = Hypercube(5)
        syndrome = build(cube, {1}, behavior="random", seed=3)
        assert syndrome.lookup(0, 1, 2) == syndrome.lookup(0, 2, 1)
        assert syndrome.lookup(7, 3, 5) == syndrome.lookup(7, 5, 3)

    def test_faulty_tester_results_are_fixed(self, build):
        cube = Hypercube(5)
        syndrome = build(cube, {0}, behavior="random", seed=11)
        first = [syndrome.lookup(0, 1, 2), syndrome.lookup(0, 1, 4), syndrome.lookup(0, 2, 4)]
        second = [syndrome.lookup(0, 2, 4), syndrome.lookup(0, 1, 4), syndrome.lookup(0, 1, 2)]
        assert first == second[::-1]

    def test_rejects_identical_pair(self, build):
        cube = Hypercube(5)
        syndrome = build(cube, set())
        with pytest.raises(ValueError):
            syndrome.lookup(0, 1, 1)

    def test_rejects_fault_outside_network(self, build):
        cube = Hypercube(5)
        with pytest.raises(ValueError):
            build(cube, {999})

    def test_lookup_counter(self, build):
        cube = Hypercube(5)
        syndrome = build(cube, {1})
        assert syndrome.lookups == 0
        syndrome.lookup(0, 1, 2)
        syndrome.lookup(0, 2, 4)
        assert syndrome.lookups == 2
        syndrome.reset_lookups()
        assert syndrome.lookups == 0

    def test_s_alias(self, build):
        cube = Hypercube(5)
        syndrome = build(cube, set())
        assert syndrome.s(0, 1, 2) == 0

    @pytest.mark.parametrize("behavior", FaultyTesterBehavior.NAMES)
    def test_healthy_testers_unaffected_by_behavior(self, build, behavior):
        cube = Hypercube(5)
        faults = {5, 9, 20}
        syndrome = build(cube, faults, behavior=behavior, seed=2)
        assert_mm_semantics(cube, syndrome, faults)

    def test_all_healthy_syndrome_is_all_zero(self, build):
        cube = Hypercube(4)
        syndrome = build(cube, set())
        for u in range(cube.num_nodes):
            neigh = sorted(cube.neighbors(u))
            for i, v in enumerate(neigh):
                for w in neigh[i + 1:]:
                    assert syndrome.lookup(u, v, w) == 0

    def test_table_size_formula(self, build):
        cube = Hypercube(5)
        syndrome = build(cube, set())
        assert len(syndrome) == syndrome_table_size(cube)
        assert len(syndrome) == 32 * 5 * 4 // 2

    def test_seed_reproducibility(self, build):
        cube = Hypercube(5)
        faults = {0, 7}
        a = build(cube, faults, seed=42)
        b = build(cube, faults, seed=42)
        assert dict(a.items()) == dict(b.items())

    def test_different_seeds_differ(self, build):
        cube = Hypercube(6)
        faults = {0, 7, 13}
        a = build(cube, faults, seed=1)
        b = build(cube, faults, seed=2)
        assert dict(a.items()) != dict(b.items())


class TestTableSyndrome:
    def test_table_size_formula_irregular(self):
        star = StarGraph(4)
        assert syndrome_table_size(star) == 24 * 3 * 2 // 2

    def test_with_overrides(self):
        cube = Hypercube(4)
        table = TableSyndrome.from_faults(cube, set())
        modified = table.with_overrides({(0, 1, 2): 1})
        assert modified.lookup(0, 2, 1) == 1
        assert table.lookup(0, 2, 1) == 0

    def test_missing_entry_raises(self):
        table = TableSyndrome({(0, 1, 2): 0})
        with pytest.raises(KeyError):
            table.lookup(5, 6, 7)

    def test_items_iteration(self):
        table = TableSyndrome({(0, 2, 1): 1, (3, 4, 5): 0})
        entries = dict(table.items())
        assert entries[(0, 1, 2)] == 1
        assert entries[(3, 4, 5)] == 0


class TestGenerateSyndrome:
    def test_array_by_default(self):
        cube = Hypercube(5)
        syndrome = generate_syndrome(cube, {1})
        assert isinstance(syndrome, ArraySyndrome)

    @pytest.mark.parametrize("behavior", FaultyTesterBehavior.NAMES)
    @pytest.mark.parametrize("network", [Hypercube(6), StarGraph(4)], ids=["Q6", "S4"])
    def test_equals_the_reference_after_a_diagnosis(self, network, behavior):
        """One (faults, behaviour, seed) names one syndrome: reading it
        through a whole diagnosis first changes no entry."""
        faults = random_faults(network, min(5, network.diagnosability()), seed=3)
        syndrome = generate_syndrome(network, faults, behavior=behavior, seed=1)
        assert diagnose(network, syndrome).faulty == faults
        reference = TableSyndrome.from_faults(network, faults, behavior=behavior, seed=1)
        differing = [
            key for key, value in reference.items() if syndrome.lookup(*key) != value
        ]
        assert not differing, f"{len(differing)} of {len(reference)} entries differ"
