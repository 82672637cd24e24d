"""Tests for syndrome/fault-set consistency checking."""

from __future__ import annotations

import pytest

from repro.core.syndrome import TableSyndrome, generate_syndrome
from repro.core.verification import (
    assert_mm_semantics,
    consistent_fault_sets,
    is_consistent_fault_set,
)
from repro.networks import Hypercube


class TestConsistency:
    def test_true_fault_set_is_consistent(self):
        cube = Hypercube(5)
        faults = {3, 17}
        syndrome = generate_syndrome(cube, faults, seed=0)
        assert is_consistent_fault_set(cube, syndrome, faults)

    def test_wrong_fault_set_is_inconsistent(self):
        cube = Hypercube(5)
        faults = {3, 17}
        syndrome = generate_syndrome(cube, faults, seed=0)
        assert not is_consistent_fault_set(cube, syndrome, {3})
        assert not is_consistent_fault_set(cube, syndrome, {3, 18})
        assert not is_consistent_fault_set(cube, syndrome, set())

    def test_empty_fault_set_consistent_with_healthy_syndrome(self):
        cube = Hypercube(5)
        syndrome = generate_syndrome(cube, frozenset())
        assert is_consistent_fault_set(cube, syndrome, set())

    def test_consistent_fault_sets_unique_within_diagnosability(self):
        cube = Hypercube(5)
        faults = frozenset({3, 17})
        syndrome = generate_syndrome(cube, faults, seed=1)
        candidates = consistent_fault_sets(cube, syndrome, 2)
        assert candidates == [faults]

    def test_consistent_fault_sets_ambiguous_beyond_diagnosability(self):
        # The classical Section 2 construction: N(u) and N(u) ∪ {u} are both
        # consistent when the size bound allows the larger set.
        cube = Hypercube(5)
        center = 0
        faults = frozenset(cube.neighbors(center))
        syndrome = generate_syndrome(cube, faults, behavior="mimic", seed=0)
        candidates = consistent_fault_sets(cube, syndrome, len(faults) + 1)
        assert frozenset(faults) in candidates
        assert frozenset(faults | {center}) in candidates

    def test_assert_mm_semantics_accepts_valid(self):
        cube = Hypercube(5)
        faults = {1, 2, 3}
        syndrome = generate_syndrome(cube, faults, seed=0)
        assert_mm_semantics(cube, syndrome, faults)

    def test_assert_mm_semantics_rejects_tampered_syndrome(self):
        cube = Hypercube(5)
        faults = {1, 2, 3}
        table = TableSyndrome.from_faults(cube, faults, seed=0)
        # Flip one healthy tester's result.
        healthy_u = 16
        v, w = sorted(cube.neighbors(healthy_u))[:2]
        correct = table.lookup(healthy_u, v, w)
        tampered = table.with_overrides({(healthy_u, v, w): 1 - correct})
        with pytest.raises(AssertionError):
            assert_mm_semantics(cube, tampered, faults)
