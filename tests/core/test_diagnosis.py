"""Tests for the general diagnosis driver (Theorem 1 and the Section 5 drivers)."""

from __future__ import annotations

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser, diagnose
from repro.core.faults import clustered_faults, neighborhood_faults, random_faults, spread_faults
from repro.core.set_builder import set_builder
from repro.core.syndrome import TableSyndrome, generate_syndrome
from repro.core.verification import assert_mm_semantics
from repro.networks import ExplicitNetwork, Hypercube

from ..conftest import ALL_FAMILIES, cached_network

# Families whose registry "small" instance satisfies the size requirements of
# the paper's approach (large enough healthy component for the certificate).
DIAGNOSABLE_SMALL = [f for f in ALL_FAMILIES]


class TestTheorem1Correctness:
    """The diagnosed set equals the injected fault set across the whole zoo."""

    @pytest.mark.parametrize("family", DIAGNOSABLE_SMALL)
    @pytest.mark.parametrize("placement", ["random", "clustered"])
    def test_exact_diagnosis_at_maximum_fault_count(self, family, placement):
        network = cached_network(family, "small")
        delta = network.diagnosability()
        if placement == "random":
            faults = random_faults(network, delta, seed=11)
        else:
            faults = clustered_faults(network, delta, seed=11)
        syndrome = generate_syndrome(network, faults, seed=11)
        result = GeneralDiagnoser(network).diagnose(syndrome)
        assert result.faulty == faults

    @pytest.mark.parametrize("family", DIAGNOSABLE_SMALL)
    def test_exact_diagnosis_with_few_faults(self, family):
        network = cached_network(family, "small")
        faults = random_faults(network, 2, seed=5)
        syndrome = generate_syndrome(network, faults, seed=5)
        result = GeneralDiagnoser(network).diagnose(syndrome)
        assert result.faulty == faults

    @pytest.mark.parametrize("family", DIAGNOSABLE_SMALL)
    def test_no_faults_diagnosed_on_healthy_network(self, family):
        network = cached_network(family, "small")
        syndrome = generate_syndrome(network, frozenset())
        result = GeneralDiagnoser(network).diagnose(syndrome)
        assert result.faulty == frozenset()
        assert result.healthy_nodes == frozenset(range(network.num_nodes))

    @pytest.mark.parametrize(
        "behavior", ["random", "all_zero", "all_one", "mimic", "anti_mimic"]
    )
    def test_correct_for_every_faulty_tester_behavior(self, behavior):
        cube = cached_network("hypercube", "small")
        faults = random_faults(cube, 7, seed=23)
        syndrome = generate_syndrome(cube, faults, behavior=behavior, seed=23)
        assert GeneralDiagnoser(cube).diagnose(syndrome).faulty == faults

    @pytest.mark.parametrize("seed", range(8))
    def test_many_random_instances_on_q8(self, seed):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=seed)
        syndrome = generate_syndrome(cube, faults, seed=seed)
        assert diagnose(cube, syndrome).faulty == faults

    def test_neighborhood_fault_pattern(self):
        cube = Hypercube(8)
        faults = neighborhood_faults(cube, center=100, count=8)
        syndrome = generate_syndrome(cube, faults, behavior="mimic", seed=1)
        assert diagnose(cube, syndrome).faulty == faults

    def test_spread_fault_pattern(self):
        cube = Hypercube(8)
        faults = spread_faults(cube, 8, seed=4)
        syndrome = generate_syndrome(cube, faults, seed=4)
        assert diagnose(cube, syndrome).faulty == faults

    def test_fault_count_below_diagnosability_sweep(self):
        cube = Hypercube(7)
        for count in range(0, 8):
            faults = random_faults(cube, count, seed=count)
            syndrome = generate_syndrome(cube, faults, seed=count)
            assert diagnose(cube, syndrome).faulty == faults


class TestDiagnosisResult:
    def test_healthy_nodes_exclude_faults_and_include_root(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 6, seed=2)
        syndrome = generate_syndrome(cube, faults, seed=2)
        result = diagnose(cube, syndrome)
        assert result.healthy_root in result.healthy_nodes
        assert result.healthy_nodes.isdisjoint(faults)

    def test_tree_spans_healthy_nodes(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 5, seed=9)
        syndrome = generate_syndrome(cube, faults, seed=9)
        result = diagnose(cube, syndrome)
        assert set(result.tree_parent) == set(result.healthy_nodes) - {result.healthy_root}
        for child, parent in result.tree_parent.items():
            assert cube.has_edge(child, parent)
            assert parent in result.healthy_nodes

    def test_summary_counts_the_grown_set_without_building_it(self, monkeypatch):
        from repro.core.diagnosis import DiagnosisResult
        from repro.core.set_builder import SetBuilderResult

        cube = Hypercube(7)
        faults = random_faults(cube, 5, seed=9)
        syndrome = generate_syndrome(cube, faults, seed=9)
        result = diagnose(cube, syndrome)
        built = []
        for cls, name in [(SetBuilderResult, "nodes"), (SetBuilderResult, "parent"),
                          (SetBuilderResult, "contributors"),
                          (DiagnosisResult, "healthy_nodes"),
                          (DiagnosisResult, "tree_parent")]:
            field = vars(cls)[name]
            monkeypatch.setattr(field, "build", lambda result, build=field.build,
                                name=name: built.append(name) or build(result))
        assert f"|U_r|={cube.num_nodes - len(faults)}," in result.summary()
        assert built == []
        assert len(result.healthy_nodes) == cube.num_nodes - len(faults)
        assert "healthy_nodes" in built  # the spy sees a read

    def test_probe_records_present(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0)
        result = diagnose(cube, syndrome)
        assert result.num_probes >= 1
        assert any(p.certified for p in result.probes)
        assert all(p.lookups >= 0 for p in result.probes)

    def test_lookup_total_includes_probes_and_final_run(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0)
        result = diagnose(cube, syndrome)
        assert result.lookups == syndrome.lookups
        assert result.lookups >= sum(p.lookups for p in result.probes)

    def test_summary_mentions_fault_count(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 3, seed=0)
        syndrome = generate_syndrome(cube, faults, seed=0)
        result = diagnose(cube, syndrome)
        assert "3 faults" in result.summary()

    def test_partition_level_reported(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=1)
        syndrome = generate_syndrome(cube, faults, seed=1)
        result = diagnose(cube, syndrome)
        assert result.partition_level in (0, 1, None)


class TestDriverConfiguration:
    def test_probe_count_limited_by_delta_plus_one_per_level(self):
        cube = Hypercube(8)
        faults = clustered_faults(cube, 8, seed=3)
        syndrome = generate_syndrome(cube, faults, seed=3)
        result = diagnose(cube, syndrome)
        partition_probes = [p for p in result.probes if p.kind == "partition"]
        levels = cube.max_partition_level() + 1
        assert len(partition_probes) <= (cube.diagnosability() + 1) * levels

    def test_use_partition_false_uses_fallback_probes(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=1)
        syndrome = generate_syndrome(cube, faults, seed=1)
        result = GeneralDiagnoser(cube, use_partition=False).diagnose(syndrome)
        assert result.faulty == faults
        assert result.partition_level is None
        assert all(p.kind.startswith("fallback") for p in result.probes)

    def test_custom_diagnosability_bound(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 4, seed=1)
        syndrome = generate_syndrome(cube, faults, seed=1)
        result = GeneralDiagnoser(cube, diagnosability=4).diagnose(syndrome)
        assert result.faulty == faults

    def test_invalid_diagnosability_rejected(self):
        with pytest.raises(ValueError):
            GeneralDiagnoser(Hypercube(8), diagnosability=0)

    def test_diagnosis_error_on_pathological_instance(self):
        # A 6-node cycle with diagnosability forced to 2 and 2 faults placed
        # so that no contributor certificate can ever fire (the healthy part
        # is a path of 4 nodes: at most 2 internal nodes ≤ δ).
        import networkx as nx

        net = ExplicitNetwork.from_networkx(nx.cycle_graph(6), diagnosability=2,
                                            connectivity=2)
        faults = {0, 3}
        syndrome = generate_syndrome(net, faults, seed=0)
        with pytest.raises(DiagnosisError):
            GeneralDiagnoser(net).diagnose(syndrome)


class TestSyndromeInteraction:
    def test_diagnosis_consistent_with_syndrome_semantics(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 6, seed=13)
        syndrome = generate_syndrome(cube, faults, seed=13)
        result = diagnose(cube, syndrome)
        assert_mm_semantics(cube, syndrome, result.faulty)

    def test_reference_table_and_served_syndromes_give_same_answer(self):
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=21)
        served = generate_syndrome(cube, faults, seed=21)
        table = TableSyndrome.from_faults(cube, faults, seed=21)
        assert diagnose(cube, served).faulty == diagnose(cube, table).faulty == faults


class TestForeignLayout:
    """A syndrome laid out over another compiled topology answers other
    tests, so every entry refuses it, native on and off; a topology
    compiled twice is the same layout and is read."""

    @pytest.fixture(params=["native", "oracle"], autouse=True)
    def mode(self, request, monkeypatch):
        if request.param == "oracle":
            monkeypatch.setattr(native, "_forced_off", True)

    @staticmethod
    def _syndromes():
        q7, q5 = Hypercube(7), Hypercube(5)
        s = ArraySyndrome.from_faults(compile_network(q7), [1, 2, 40], seed=3)
        t = ArraySyndrome.from_faults(compile_network(q5), [3, 9], seed=3)
        return q7, q5, s, t

    def test_every_entry_refuses_it(self):
        _, q5, s, _ = self._syndromes()
        with pytest.raises(ValueError, match="compiled topology"):
            GeneralDiagnoser(q5).diagnose(s)
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder(q5, s, 0)
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder(q5, s, 0, stop_on_certificate=True)
        assert s.lookups == 0

    def test_a_batch_keeps_its_other_answers(self):
        q7, _, s, t = self._syndromes()
        answer, refusal = GeneralDiagnoser(q7).diagnose_many([s, t])
        assert answer.faulty == frozenset({1, 2, 40})
        assert isinstance(refusal, ValueError)
        assert "compiled topology" in str(refusal)

    def test_a_topology_compiled_twice_is_read(self):
        _, q5, _, t = self._syndromes()
        twin = Hypercube(5)
        assert compile_network(twin) is not compile_network(q5)
        copy = ArraySyndrome.from_faults(compile_network(q5), [3, 9], seed=3)
        on_twin = GeneralDiagnoser(twin).diagnose(t)
        on_first = GeneralDiagnoser(q5).diagnose(copy)
        assert on_twin.faulty == on_first.faulty == frozenset({3, 9})
        assert on_twin.probes == on_first.probes
        assert on_twin.lookups == on_first.lookups == t.lookups
