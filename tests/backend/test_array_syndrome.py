"""ArraySyndrome agreement and fast-path equivalence tests."""

from __future__ import annotations

import pytest

from repro.backend import ArraySyndrome, compile_network
from repro.core.diagnosis import GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults, spread_faults
from repro.core.set_builder import set_builder
from repro.core.syndrome import FaultyTesterBehavior, LazySyndrome, generate_syndrome
from repro.networks import ExplicitNetwork

from ..conftest import ALL_FAMILIES, cached_network


def _tiny_faults(network, seed=0):
    delta = network.diagnosability()
    return random_faults(network, min(delta, 4), seed=seed)


class TestEntryAgreement:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_agrees_with_materialized_table_per_family(self, family):
        network = cached_network(family, "tiny")
        faults = _tiny_faults(network, seed=7)
        table = LazySyndrome(network, faults, behavior="random", seed=7).materialize()
        array = ArraySyndrome.from_faults(network, faults, behavior="random", seed=7)
        assert len(array) == len(table)
        for (u, v, w), value in table.items():
            assert array._result(u, v, w) == value

    @pytest.mark.parametrize("behavior", FaultyTesterBehavior.NAMES)
    def test_agrees_for_every_tester_behavior(self, q5, behavior):
        faults = frozenset({0, 3, 17})
        table = LazySyndrome(q5, faults, behavior=behavior, seed=11).materialize()
        array = ArraySyndrome.from_faults(q5, faults, behavior=behavior, seed=11)
        for (u, v, w), value in table.items():
            assert array._result(u, v, w) == value

    def test_agrees_with_lazy_on_deterministic_behaviors(self, q5):
        # With a deterministic faulty-tester behaviour the lazy oracle gives
        # the same answer in any query order, so direct comparison is valid.
        faults = frozenset({1, 2})
        lazy = LazySyndrome(q5, faults, behavior="all_one", seed=0)
        array = ArraySyndrome.from_faults(q5, faults, behavior="all_one", seed=0)
        for u in range(q5.num_nodes):
            row = sorted(q5.neighbors(u))
            for i, v in enumerate(row):
                for w in row[i + 1:]:
                    assert array.lookup(u, v, w) == lazy.lookup(u, v, w)

    def test_from_syndrome_reencodes_table(self, q5):
        faults = frozenset({4, 9})
        table = LazySyndrome(q5, faults, seed=3).materialize()
        array = ArraySyndrome.from_syndrome(q5, table)
        assert dict(array.items()) == dict(table.items())
        # A lazy source also carries the hidden fault set across.
        lazy = LazySyndrome(q5, faults, seed=3)
        assert ArraySyndrome.from_syndrome(q5, lazy).faults == faults

    def test_to_table_round_trips(self, q5):
        faults = frozenset({5})
        array = ArraySyndrome.from_faults(q5, faults, seed=1)
        table = array.to_table()
        for (u, v, w), value in table.items():
            assert array._result(u, v, w) == value


class TestSparseFillPin:
    """The fault-sparse fill is byte-identical to a pair-by-pair reference.

    ``from_syndrome`` over a ``LazySyndrome`` evaluates every test in slot
    order from the oracle's definition alone, so it shares no code with the
    per-degree numpy fill it checks.
    """

    @staticmethod
    def _assert_pinned(network, faults, behavior, seed):
        fast = ArraySyndrome.from_faults(network, faults, behavior=behavior, seed=seed)
        lazy = LazySyndrome(network, faults, behavior=behavior, seed=seed)
        reference = ArraySyndrome.from_syndrome(network, lazy)
        assert bytes(fast.buffer) == bytes(reference.buffer), (faults, behavior)
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

    def test_generate_syndrome_array_backend(self, q5):
        syndrome = generate_syndrome(q5, {1, 2}, seed=5, backend="array")
        assert isinstance(syndrome, ArraySyndrome)
        table = generate_syndrome(q5, {1, 2}, seed=5, backend="table")
        for (u, v, w), value in table.items():
            assert syndrome._result(u, v, w) == value

    def test_generate_syndrome_rejects_unknown_backend(self, q5):
        with pytest.raises(ValueError, match="unknown syndrome backend"):
            generate_syndrome(q5, set(), backend="quantum")


class TestFastPathEquivalence:
    """Compiled (rows/array/stacked) paths replicate the object path."""

    @pytest.mark.parametrize("family", ["hypercube", "star", "pancake", "kary_ncube"])
    @pytest.mark.parametrize("placement", [random_faults, clustered_faults])
    def test_set_builder_equivalence(self, family, placement):
        network = cached_network(family, "tiny")
        delta = network.diagnosability()
        for seed in range(3):
            faults = placement(network, delta, seed=seed)
            table = generate_syndrome(network, faults, seed=seed, full_table=True)
            array = generate_syndrome(network, faults, seed=seed, backend="array")
            for root in (0, network.num_nodes // 2):
                reference = set_builder(network, table, root,
                                        diagnosability=delta, compiled=False)
                rows = set_builder(network, table, root, diagnosability=delta)
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
        table = generate_syndrome(q7, faults, seed=2, full_table=True)
        array = generate_syndrome(q7, faults, seed=2, backend="array")
        cls = q7.partition_scheme(1).first(1)[0]
        reference = set_builder(q7, table, cls.representative, diagnosability=delta,
                                restrict=cls.contains, compiled=False)
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
            reference = GeneralDiagnoser(q7, compiled=False).diagnose(
                generate_syndrome(q7, faults, seed=seed, full_table=True)
            )
            fast = GeneralDiagnoser(q7).diagnose(
                generate_syndrome(q7, faults, seed=seed, backend="array")
            )
            assert fast.faulty == reference.faulty == faults
            assert fast.healthy_nodes == reference.healthy_nodes
            assert fast.lookups == reference.lookups
