"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.networks.registry import FAMILIES


# --------------------------------------------------------------------------- helpers
def small_instance(family: str):
    """Construct the registry's small instance of a family (cached per session)."""
    spec = FAMILIES[family]
    return spec.constructor(**spec.small)


# Test-sized instances: small enough for exhaustive structural checks
# (regularity, symmetry, partition validation) yet non-trivial.
TINY_PARAMS: dict[str, dict] = {
    "hypercube": {"dimension": 5},
    "crossed_cube": {"dimension": 5},
    "twisted_cube": {"dimension": 5},
    "folded_hypercube": {"dimension": 5},
    "enhanced_hypercube": {"dimension": 5, "k": 3},
    "augmented_cube": {"dimension": 5},
    "shuffle_cube": {"dimension": 6},
    "twisted_n_cube": {"dimension": 5},
    "kary_ncube": {"n": 2, "k": 6},
    "augmented_kary_ncube": {"n": 2, "k": 6},
    "star": {"n": 5},
    "nk_star": {"n": 5, "k": 3},
    "pancake": {"n": 5},
    "arrangement": {"n": 5, "k": 2},
    "locally_twisted_cube": {"dimension": 5},
    "mobius_cube": {"dimension": 5},
}


_instance_cache: dict[tuple[str, str], object] = {}


def cached_network(family: str, size: str = "tiny"):
    """Construct (once per session) a network instance of the requested size."""
    key = (family, size)
    if key not in _instance_cache:
        spec = FAMILIES[family]
        if size == "tiny":
            params = TINY_PARAMS[family]
        elif size == "small":
            params = spec.small
        else:
            raise ValueError(size)
        _instance_cache[key] = spec.constructor(**params)
    return _instance_cache[key]


ALL_FAMILIES = sorted(FAMILIES)


def probe_level(csr, syndrome, starts, delta, *, class_of=None, max_nodes=None):
    """One level of native root-search probes over the compiled topology
    ``csr``: a one-level :class:`~repro.core.set_builder.ProbePlan` run."""
    from repro.core.set_builder import ProbePlan, run_probe_plan

    level = (len(starts), -1 if class_of is None else 0,
             -1 if max_nodes is None else max_nodes)
    plan = ProbePlan(csr.num_nodes, starts, level, class_of)
    return run_probe_plan(csr, syndrome, plan, delta)


def reference_bytes(network, faults, *, behavior="random", seed=0) -> bytes:
    """The syndrome of ``faults`` in the compiled pair-slot layout, read off
    the reference table :meth:`~repro.core.syndrome.TableSyndrome.from_faults`,
    which shares no code with the served build."""
    from repro.backend.csr import compile_network
    from repro.core.syndrome import TableSyndrome

    table = TableSyndrome.from_faults(network, faults, behavior=behavior, seed=seed)
    return bytes(
        table._result(u, v, w)
        for u, row in enumerate(compile_network(network).rows)
        for i, v in enumerate(row)
        for w in row[i + 1:]
    )


@pytest.fixture(params=ALL_FAMILIES)
def tiny_network(request):
    """One tiny instance per network family (parametrised fixture)."""
    return cached_network(request.param, "tiny")


@pytest.fixture(params=ALL_FAMILIES)
def small_network(request):
    """One registry 'small' instance per network family (parametrised fixture)."""
    return cached_network(request.param, "small")


@pytest.fixture
def q5():
    return cached_network("hypercube", "tiny")


@pytest.fixture
def q7():
    return cached_network("hypercube", "small")
