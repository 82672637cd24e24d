"""Experiment E4 (Theorems 5–7): (n,k)-stars, stars, pancakes, arrangement graphs.

Paper claims:

* Theorem 5 — at most ``n - 1`` faults in ``S_{n,k}`` identified in
  ``O(n!·n / (n-k)!)`` time;
* Theorem 6 — at most ``n - 1`` faults in ``P_n`` identified in ``O(n!·n)``
  time;
* Theorem 7 — at most ``k(n-k)`` faults in ``A_{n,k}`` identified in
  ``O(n!·k(n-k) / (n-k)!)`` time.

Each benchmark diagnoses a maximum-size random fault set and asserts
exactness.  The arrangement-graph instances also exercise the driver's
fallback probing, because the paper's "enough classes" assumption does not
hold there (E4's "fallback probing" column in ``python -m repro.experiments E4``).
"""

from __future__ import annotations

import pytest

from repro.core.diagnosis import GeneralDiagnoser
from repro.workloads.sweeps import permutation_sweep

from .conftest import prepared_instance

POINTS = {point.label: point for point in permutation_sweep(seed=7)}


@pytest.mark.parametrize("label", sorted(POINTS))
def test_permutation_network_diagnosis(benchmark, label):
    point = POINTS[label]
    network = point.network
    faults = point.scenarios[0].faults
    _, syndrome = prepared_instance(network, faults=faults, seed=7)
    diagnoser = GeneralDiagnoser(network)

    result = benchmark(diagnoser.diagnose, syndrome)

    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E4"
    benchmark.extra_info["instance"] = label
    benchmark.extra_info["N"] = network.num_nodes
    benchmark.extra_info["delta"] = network.diagnosability()
    benchmark.extra_info["model_delta_N"] = network.max_degree * network.num_nodes
    benchmark.extra_info["lookups"] = result.lookups
