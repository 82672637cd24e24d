"""Property-based tests (hypothesis) for the core invariants.

These cover the paper's central guarantees over randomly drawn fault sets,
faulty-tester behaviours and start nodes:

* MM-model semantics of generated syndromes;
* soundness of the ``Set_Builder`` contributor certificate;
* Theorem 1 (the diagnosed set equals the injected fault set) on hypercubes,
  crossed cubes and star graphs;
* agreement of every diagnoser with the injected fault set;
* structural invariants of the encodings and partitions.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import ExtendedStarDiagnoser, YangCycleDiagnoser
from repro.core.diagnosis import GeneralDiagnoser
from repro.core.set_builder import set_builder
from repro.core.syndrome import FaultyTesterBehavior, generate_syndrome
from repro.core.verification import assert_mm_semantics, is_consistent_fault_set
from repro.networks import CrossedCube, Hypercube, StarGraph

Q7 = Hypercube(7)
Q8 = Hypercube(8)
CQ7 = CrossedCube(7)
S5 = StarGraph(5)

behaviors = st.sampled_from(FaultyTesterBehavior.NAMES)
seeds = st.integers(min_value=0, max_value=2**31 - 1)

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fault_sets(network, max_size):
    return st.sets(
        st.integers(min_value=0, max_value=network.num_nodes - 1),
        min_size=0,
        max_size=max_size,
    )


class TestSyndromeInvariants:
    @given(faults=fault_sets(Q7, 7), behavior=behaviors, seed=seeds)
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_generated_syndrome_obeys_mm_semantics(self, faults, behavior, seed):
        syndrome = generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        assert_mm_semantics(Q7, syndrome, faults)

    @given(faults=fault_sets(Q7, 7), behavior=behaviors, seed=seeds)
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_true_fault_set_always_consistent(self, faults, behavior, seed):
        syndrome = generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        assert is_consistent_fault_set(Q7, syndrome, faults)

    @given(faults=fault_sets(S5, 4), behavior=behaviors, seed=seeds)
    @settings(max_examples=20, **COMMON_SETTINGS)
    def test_star_graph_syndromes(self, faults, behavior, seed):
        syndrome = generate_syndrome(S5, faults, behavior=behavior, seed=seed)
        assert_mm_semantics(S5, syndrome, faults)


class TestSetBuilderInvariants:
    @given(
        faults=fault_sets(Q7, 12),  # deliberately allowed to exceed δ
        behavior=behaviors,
        seed=seeds,
        root=st.integers(min_value=0, max_value=Q7.num_nodes - 1),
    )
    @settings(max_examples=60, **COMMON_SETTINGS)
    def test_certificate_soundness_even_beyond_delta_faults(self, faults, behavior, seed, root):
        """If the certificate fires with bound δ = 7 and the actual fault set
        has size ≤ 7, the grown set contains no faulty node."""
        syndrome = generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        result = set_builder(Q7, syndrome, root, diagnosability=7)
        if len(faults) <= 7 and result.all_healthy:
            assert result.nodes.isdisjoint(faults)

    @given(faults=fault_sets(Q7, 7), behavior=behaviors, seed=seeds)
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_healthy_root_grows_only_healthy_nodes(self, faults, behavior, seed):
        root = next(v for v in range(Q7.num_nodes) if v not in faults)
        syndrome = generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        result = set_builder(Q7, syndrome, root, diagnosability=7)
        assert result.nodes.isdisjoint(faults)

    @given(faults=fault_sets(Q7, 7), seed=seeds)
    @settings(max_examples=30, **COMMON_SETTINGS)
    def test_tree_edges_are_graph_edges(self, faults, seed):
        root = next(v for v in range(Q7.num_nodes) if v not in faults)
        syndrome = generate_syndrome(Q7, faults, seed=seed)
        result = set_builder(Q7, syndrome, root, diagnosability=7)
        for parent, child in result.tree_edges():
            assert Q7.has_edge(parent, child)
        assert set(result.parent).issubset(result.nodes)


class TestTheorem1Property:
    @given(faults=fault_sets(Q8, 8), behavior=behaviors, seed=seeds)
    @settings(max_examples=40, **COMMON_SETTINGS)
    def test_hypercube_diagnosis_recovers_fault_set(self, faults, behavior, seed):
        syndrome = generate_syndrome(Q8, faults, behavior=behavior, seed=seed)
        result = GeneralDiagnoser(Q8).diagnose(syndrome)
        assert result.faulty == frozenset(faults)

    @given(faults=fault_sets(CQ7, 7), behavior=behaviors, seed=seeds)
    @settings(max_examples=25, **COMMON_SETTINGS)
    def test_crossed_cube_diagnosis_recovers_fault_set(self, faults, behavior, seed):
        syndrome = generate_syndrome(CQ7, faults, behavior=behavior, seed=seed)
        result = GeneralDiagnoser(CQ7).diagnose(syndrome)
        assert result.faulty == frozenset(faults)

    @given(faults=fault_sets(S5, 4), behavior=behaviors, seed=seeds)
    @settings(max_examples=25, **COMMON_SETTINGS)
    def test_star_graph_diagnosis_recovers_fault_set(self, faults, behavior, seed):
        syndrome = generate_syndrome(S5, faults, behavior=behavior, seed=seed)
        result = GeneralDiagnoser(S5).diagnose(syndrome)
        assert result.faulty == frozenset(faults)


class TestAlgorithmsAgree:
    @given(faults=fault_sets(Q7, 7), behavior=behaviors, seed=seeds)
    @settings(max_examples=15, **COMMON_SETTINGS)
    def test_all_diagnosers_recover_the_fault_set(self, faults, behavior, seed):
        syndrome = generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        stewart = GeneralDiagnoser(Q7).diagnose(syndrome).faulty
        yang = YangCycleDiagnoser(Q7).diagnose(
            generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        ).faulty
        extended = ExtendedStarDiagnoser(Q7).diagnose(
            generate_syndrome(Q7, faults, behavior=behavior, seed=seed)
        ).faulty
        assert stewart == yang == extended == frozenset(faults)


class TestEncodingInvariants:
    @given(v=st.integers(min_value=0, max_value=Q8.num_nodes - 1))
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_hypercube_label_round_trip(self, v):
        assert Q8.node_index(Q8.node_label(v)) == v

    @given(v=st.integers(min_value=0, max_value=S5.num_nodes - 1))
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_star_label_round_trip(self, v):
        assert S5.node_index(S5.node_label(v)) == v

    @given(v=st.integers(min_value=0, max_value=Q8.num_nodes - 1))
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_hypercube_neighbors_symmetric(self, v):
        for w in Q8.neighbors(v):
            assert v in Q8.neighbors(w)

    @given(v=st.integers(min_value=0, max_value=CQ7.num_nodes - 1))
    @settings(max_examples=50, **COMMON_SETTINGS)
    def test_crossed_cube_neighbors_symmetric_and_distinct(self, v):
        neighbors = list(CQ7.neighbors(v))
        assert len(neighbors) == len(set(neighbors))
        for w in neighbors:
            assert v in CQ7.neighbors(w)
