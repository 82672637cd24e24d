"""ArraySyndrome agreement and fast-path equivalence tests."""

from __future__ import annotations

import pytest

from repro.backend import ArraySyndrome, compile_network
from repro.core.diagnosis import GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults, spread_faults
from repro.core.set_builder import set_builder
from repro.core.syndrome import FaultyTesterBehavior, TableSyndrome, generate_syndrome
from repro.networks import ExplicitNetwork

from ..conftest import ALL_FAMILIES, cached_network, reference_bytes


def _tiny_faults(network, seed=0):
    delta = network.diagnosability()
    return random_faults(network, min(delta, 4), seed=seed)


class TestEntryAgreement:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_agrees_with_materialized_table_per_family(self, family):
        network = cached_network(family, "tiny")
        faults = _tiny_faults(network, seed=7)
        table = TableSyndrome.from_faults(network, faults, behavior="random", seed=7)
        array = ArraySyndrome.from_faults(network, faults, behavior="random", seed=7)
        assert len(array) == len(table)
        for (u, v, w), value in table.items():
            assert array._result(u, v, w) == value

    @pytest.mark.parametrize("behavior", FaultyTesterBehavior.NAMES)
    def test_agrees_for_every_tester_behavior(self, q5, behavior):
        faults = frozenset({0, 3, 17})
        table = TableSyndrome.from_faults(q5, faults, behavior=behavior, seed=11)
        array = ArraySyndrome.from_faults(q5, faults, behavior=behavior, seed=11)
        for (u, v, w), value in table.items():
            assert array._result(u, v, w) == value

    def test_to_table_round_trips(self, q5):
        faults = frozenset({5})
        array = ArraySyndrome.from_faults(q5, faults, seed=1)
        table = array.to_table()
        for (u, v, w), value in table.items():
            assert array._result(u, v, w) == value


class TestSparseFillPin:
    """The fault-sparse fill is byte-identical to a pair-by-pair reference.

    ``TableSyndrome.from_faults`` evaluates every test in the canonical order
    from the MM model's definition over ``network.neighbors``, so it shares
    no code with the slot pass it checks.
    """

    @staticmethod
    def _assert_pinned(network, faults, behavior, seed):
        fast = ArraySyndrome.from_faults(network, faults, behavior=behavior, seed=seed)
        reference = reference_bytes(network, faults, behavior=behavior, seed=seed)
        assert bytes(fast.buffer) == reference, (faults, behavior)
        assert fast.faults == frozenset(faults)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_behavior_placement_and_fault_count(self, family):
        network = cached_network(family, "tiny")
        delta = network.diagnosability()
        for placement in (random_faults, clustered_faults, spread_faults):
            for count in sorted({0, 1, delta}):
                seed = 3 * count + 1
                faults = placement(network, count, seed=seed) if count else set()
                assert len(faults) == count
                for behavior in FaultyTesterBehavior.NAMES:
                    self._assert_pinned(network, faults, behavior, seed)

    @pytest.mark.parametrize("behavior", FaultyTesterBehavior.NAMES)
    def test_mixed_degree_topology(self, behavior):
        # A hub over a 7-cycle, a pendant and an isolated node: degrees 0, 1,
        # 3, 4 and 7 all occur, so the slot pass meets rows of every width.
        rows = [list(range(1, 8))]
        for v in range(1, 8):
            rows.append([0, 1 + (v % 7), 1 + ((v - 2) % 7)])
        rows[1].append(8)
        rows.extend([[1], []])
        network = ExplicitNetwork([tuple(sorted(row)) for row in rows])
        degrees = {network.degree(v) for v in range(network.num_nodes)}
        assert degrees == {0, 1, 3, 4, 7}
        for seed, faults in enumerate(({0}, {8}, {1, 9}, {0, 4, 8}, {2, 3, 5})):
            self._assert_pinned(network, faults, behavior, seed)


class TestSyndromeApi:
    def test_lookup_counts_and_symmetry(self, q5):
        array = ArraySyndrome.from_faults(q5, {1}, seed=0)
        before = array.lookups
        a = array.lookup(0, 1, 2)
        b = array.lookup(0, 2, 1)
        assert a == b == 1
        assert array.lookups == before + 2
        array.reset_lookups()
        assert array.lookups == 0

    def test_rejects_identical_pair(self, q5):
        array = ArraySyndrome.from_faults(q5, set(), seed=0)
        with pytest.raises(ValueError):
            array.lookup(0, 1, 1)

    def test_rejects_non_neighbor_pair(self, q5):
        array = ArraySyndrome.from_faults(q5, set(), seed=0)
        with pytest.raises(KeyError):
            array.lookup(0, 1, 3)  # 3 is not adjacent to 0 in Q_5

    def test_rejects_fault_outside_network(self, q5):
        with pytest.raises(ValueError):
            ArraySyndrome.from_faults(q5, {10_000}, seed=0)

    def test_generate_syndrome_is_the_array_build(self, q5):
        syndrome = generate_syndrome(q5, {1, 2}, seed=5)
        assert isinstance(syndrome, ArraySyndrome)
        table = TableSyndrome.from_faults(q5, {1, 2}, seed=5)
        assert dict(syndrome.items()) == dict(table.items())


class TestFastPathEquivalence:
    """The array paths (rows oracle, stacked kernel) replicate the rows
    oracle over the reference table."""

    @pytest.mark.parametrize("family", ["hypercube", "star", "pancake", "kary_ncube"])
    @pytest.mark.parametrize("placement", [random_faults, clustered_faults])
    def test_set_builder_equivalence(self, family, placement):
        network = cached_network(family, "tiny")
        delta = network.diagnosability()
        for seed in range(3):
            faults = placement(network, delta, seed=seed)
            table = TableSyndrome.from_faults(network, faults, seed=seed)
            array = generate_syndrome(network, faults, seed=seed)
            for root in (0, network.num_nodes // 2):
                reference = set_builder(network, table, root, diagnosability=delta)
                rows = set_builder(network, array, root, diagnosability=delta,
                                   max_nodes=network.num_nodes + 1)
                fast = set_builder(network, array, root, diagnosability=delta)
                for result in (rows, fast):
                    assert result.nodes == reference.nodes
                    assert result.parent == reference.parent
                    assert result.contributors == reference.contributors
                    assert result.rounds == reference.rounds
                    assert result.all_healthy == reference.all_healthy
                    assert result.lookups == reference.lookups

    def test_restricted_and_budgeted_array_path(self, q7):
        delta = q7.diagnosability()
        faults = random_faults(q7, delta, seed=2)
        table = TableSyndrome.from_faults(q7, faults, seed=2)
        array = generate_syndrome(q7, faults, seed=2)
        cls = q7.partition_scheme(1).first(1)[0]
        reference = set_builder(q7, table, cls.representative, diagnosability=delta,
                                restrict=cls.contains)
        fast = set_builder(q7, array, cls.representative, diagnosability=delta,
                           restrict=cls.contains)
        assert fast.nodes == reference.nodes
        assert fast.lookups == reference.lookups
        budgeted = set_builder(q7, array, 0, diagnosability=delta, max_nodes=9)
        assert budgeted.truncated and budgeted.size <= 9

    def test_full_diagnosis_equivalence(self, q7):
        delta = q7.diagnosability()
        for seed in range(3):
            faults = random_faults(q7, delta, seed=seed)
            reference = GeneralDiagnoser(q7).diagnose(
                TableSyndrome.from_faults(q7, faults, seed=seed)
            )
            fast = GeneralDiagnoser(q7).diagnose(generate_syndrome(q7, faults, seed=seed))
            assert fast.faulty == reference.faulty == faults
            assert fast.healthy_nodes == reference.healthy_nodes
            assert fast.lookups == reference.lookups
