"""Shared helpers for the benchmark harness.

Every benchmark measures the diagnosis step only: the syndrome is fully
materialised beforehand, which matches the paper's setting ("the syndrome has
already been obtained") and makes the comparison across algorithms fair (all
of them read from the same O(1)-lookup store): the served flat-array
realisation, :class:`repro.backend.array_syndrome.ArraySyndrome`.
"""

from __future__ import annotations

import pytest

from repro.core.faults import random_faults
from repro.core.syndrome import Syndrome, generate_syndrome
from repro.networks.base import InterconnectionNetwork

_syndrome_cache: dict = {}


def prepared_instance(
    network: InterconnectionNetwork,
    *,
    faults: frozenset[int] | None = None,
    fault_count: int | None = None,
    seed: int = 0,
    behavior: str = "random",
) -> tuple[frozenset[int], Syndrome]:
    """Inject faults and materialise the full syndrome (cached per call site)."""
    if faults is None:
        delta = network.diagnosability()
        count = delta if fault_count is None else fault_count
        faults = random_faults(network, count, seed=seed)
    key = (id(network), faults, seed, behavior)
    if key not in _syndrome_cache:
        _syndrome_cache[key] = generate_syndrome(
            network, faults, behavior=behavior, seed=seed
        )
    return faults, _syndrome_cache[key]


@pytest.fixture
def prepare():
    return prepared_instance
