"""Workload generation for experiments: fault placements and parameter sweeps.

The fault-placement primitives live in :mod:`repro.core.faults`; this package
re-exports them and adds the sweep generators the benchmark harness iterates
over (one sweep per experiment E1–E9 of :mod:`repro.experiments`).
"""

from .sweeps import (
    SweepPoint,
    cube_variant_sweep,
    distributed_sweep,
    hypercube_sweep,
    kary_sweep,
    permutation_sweep,
)
from ..core.faults import (
    FaultScenario,
    clustered_faults,
    neighborhood_faults,
    random_faults,
    scenario_suite,
    spread_faults,
)

__all__ = [
    "FaultScenario",
    "random_faults",
    "clustered_faults",
    "neighborhood_faults",
    "spread_faults",
    "scenario_suite",
    "SweepPoint",
    "hypercube_sweep",
    "cube_variant_sweep",
    "kary_sweep",
    "permutation_sweep",
    "distributed_sweep",
]
