"""Experiment E1 (Theorem 2): exact diagnosis on hypercubes and O(n·2^n) scaling.

Paper claim: for a set of at most ``n`` faults in ``Q_n`` there is an
algorithm running in ``O(n·2^n)`` time that returns exactly the fault set.

The benchmark measures the diagnosis time for ``n = 7 .. 11`` with the maximum
number of faults and verifies (a) exactness on every run and (b) that the
measured times grow no faster than the ``n·2^n`` model (fitted exponent ≈ 1,
reported by E1's table).
"""

from __future__ import annotations

import pytest

from repro.core.diagnosis import GeneralDiagnoser
from repro.networks import Hypercube

from .conftest import prepared_instance

DIMENSIONS = [7, 8, 9, 10, 11]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_hypercube_diagnosis_scaling(benchmark, n):
    cube = Hypercube(n)
    faults, syndrome = prepared_instance(cube, seed=n)
    diagnoser = GeneralDiagnoser(cube)

    result = benchmark(diagnoser.diagnose, syndrome)

    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["n"] = n
    benchmark.extra_info["N"] = cube.num_nodes
    benchmark.extra_info["model_n_2n"] = n * 2**n
    benchmark.extra_info["faults"] = len(faults)
    benchmark.extra_info["lookups"] = result.lookups


@pytest.mark.parametrize("behavior", ["all_zero", "mimic"])
def test_hypercube_diagnosis_adversarial_testers(benchmark, behavior):
    """Worst-case faulty-tester behaviours do not change the outcome or the cost class."""
    cube = Hypercube(10)
    faults, syndrome = prepared_instance(cube, seed=3, behavior=behavior)
    diagnoser = GeneralDiagnoser(cube)

    result = benchmark(diagnoser.diagnose, syndrome)

    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E1"
    benchmark.extra_info["behavior"] = behavior
