"""Experiment E5 (Sections 4.2 and 6): syndrome-lookup accounting.

Paper claims:

* a single ``Set_Builder(u0)`` run consults at most
  ``(Δ - 1)(Δ/2 + |U_r| - 1)`` syndrome entries;
* this is "far less" than the complete syndrome table
  (``Σ_u C(deg(u), 2)`` entries), which algorithms in the style of Chiang &
  Tan must consult.

Each benchmark runs the final (unrestricted) ``Set_Builder`` from a healthy
root, times it, and asserts both halves of the claim.  The measured
lookups-to-table ratio is what E5's table reports.
"""

from __future__ import annotations

import pytest

from repro.analysis import set_builder_lookup_bound
from repro.core.set_builder import set_builder
from repro.core.syndrome import syndrome_table_size
from repro.networks.registry import create_network

from .conftest import prepared_instance

INSTANCES = {
    "Q_10": ("hypercube", {"dimension": 10}),
    "CQ_10": ("crossed_cube", {"dimension": 10}),
    "AQ_9": ("augmented_cube", {"dimension": 9}),
    "Q^8_3": ("kary_ncube", {"n": 3, "k": 8}),
    "S_7": ("star", {"n": 7}),
    "P_7": ("pancake", {"n": 7}),
    "A_7,3": ("arrangement", {"n": 7, "k": 3}),
}


@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_set_builder_lookup_accounting(benchmark, label):
    family, params = INSTANCES[label]
    network = create_network(family, **params)
    faults, syndrome = prepared_instance(network, seed=13)
    healthy_root = next(v for v in range(network.num_nodes) if v not in faults)
    delta = network.diagnosability()

    def final_run():
        syndrome.reset_lookups()
        return set_builder(network, syndrome, healthy_root, diagnosability=delta)

    result = benchmark(final_run)

    table = syndrome_table_size(network)
    bound = set_builder_lookup_bound(network.max_degree, result.size)
    root_tests = network.max_degree * (network.max_degree - 1) / 2
    # Claim 1: the Section 6 bound (plus the root's own pair scan) holds.
    assert result.lookups <= bound + root_tests
    # Claim 2: far fewer lookups than the full table.
    assert result.lookups < table / 2

    benchmark.extra_info["experiment"] = "E5"
    benchmark.extra_info["instance"] = label
    benchmark.extra_info["lookups"] = result.lookups
    benchmark.extra_info["section6_bound"] = int(bound)
    benchmark.extra_info["full_table"] = table
    benchmark.extra_info["lookup_fraction_of_table"] = round(result.lookups / table, 4)
