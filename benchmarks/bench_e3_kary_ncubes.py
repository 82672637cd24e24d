"""Experiment E3 (Theorem 4): k-ary n-cubes and augmented k-ary n-cubes.

Paper claim: at most ``2n`` faults in ``Q^k_n`` (resp. ``4n - 2`` in
``AQ_{n,k}``) are identified exactly by an ``O(n·k^n)`` algorithm.  Each
benchmark diagnoses a maximum-size random fault set; exactness is asserted and
the ``n·k^n`` model value is recorded so E3's table can report the fitted
scaling shape.
"""

from __future__ import annotations

import pytest

from repro.core.diagnosis import GeneralDiagnoser
from repro.workloads.sweeps import kary_sweep

from .conftest import prepared_instance

POINTS = {point.label: point for point in kary_sweep(seed=5)}


@pytest.mark.parametrize("label", sorted(POINTS))
def test_kary_diagnosis(benchmark, label):
    point = POINTS[label]
    network = point.network
    faults = point.scenarios[0].faults
    _, syndrome = prepared_instance(network, faults=faults, seed=5)
    diagnoser = GeneralDiagnoser(network)

    result = benchmark(diagnoser.diagnose, syndrome)

    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E3"
    benchmark.extra_info["instance"] = label
    benchmark.extra_info["N"] = network.num_nodes
    benchmark.extra_info["delta"] = network.diagnosability()
    benchmark.extra_info["model_n_kn"] = network.dimension * network.num_nodes
    benchmark.extra_info["lookups"] = result.lookups
