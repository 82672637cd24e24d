"""repro — a reproduction of Stewart (IPDPS 2010).

"A general algorithm for detecting faults under the comparison diagnosis
model": given a syndrome of MM-model comparison tests produced by at most
``δ`` faulty processors in an interconnection network whose connectivity is
at least its diagnosability ``δ``, the algorithm recovers the exact fault set
in ``O(Δ·N)`` time.

Quickstart
----------

>>> from repro import Hypercube, generate_syndrome, diagnose, random_faults
>>> cube = Hypercube(8)
>>> faults = random_faults(cube, 8, seed=1)
>>> syndrome = generate_syndrome(cube, faults, seed=1)
>>> result = diagnose(cube, syndrome)
>>> result.faulty == faults
True

The package is organised as:

* :mod:`repro.core` — the MM-model syndrome machinery, ``Set_Builder`` and
  the general diagnoser (paper Sections 2 and 4);
* :mod:`repro.networks` — the fourteen interconnection-network families of
  Section 5;
* :mod:`repro.baselines` — the comparator algorithms discussed in Section 3
  (exhaustive search, Yang's cycle algorithm, an extended-star local
  diagnoser in the spirit of Chiang & Tan);
* :mod:`repro.diagnosability` — diagnosability bounds and conditions
  (Section 2 and reference [6]);
* :mod:`repro.analysis` — the codebase-aware static analyzer
  (``python -m repro.analysis``), plus the analytical cost formulas of
  Sections 4.2 and 6 and the scaling fits the experiments report;
* :mod:`repro.distributed` — the event-driven
  :class:`~repro.distributed.engine.ProtocolEngine`, which runs the
  distributed self-diagnosis sketched in the paper's further-research
  section as real messages over a modelled channel.
"""

from .core import (
    DiagnosisError,
    DiagnosisResult,
    FaultScenario,
    FaultyTesterBehavior,
    GeneralDiagnoser,
    SetBuilderResult,
    Syndrome,
    TableSyndrome,
    certificate_node_budget,
    clustered_faults,
    diagnose,
    generate_syndrome,
    neighborhood_faults,
    random_faults,
    scenario_suite,
    set_builder,
    spread_faults,
    syndrome_table_size,
)
from .networks import (
    ArrangementGraph,
    AugmentedCube,
    AugmentedKAryNCube,
    CrossedCube,
    EnhancedHypercube,
    ExplicitNetwork,
    FoldedHypercube,
    Hypercube,
    InterconnectionNetwork,
    KAryNCube,
    NKStarGraph,
    PancakeGraph,
    ShuffleCube,
    StarGraph,
    TwistedCube,
    TwistedNCube,
    available_families,
    create_network,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "diagnose",
    "GeneralDiagnoser",
    "DiagnosisResult",
    "DiagnosisError",
    "set_builder",
    "SetBuilderResult",
    "certificate_node_budget",
    "Syndrome",
    "TableSyndrome",
    "FaultyTesterBehavior",
    "generate_syndrome",
    "syndrome_table_size",
    "FaultScenario",
    "random_faults",
    "clustered_faults",
    "neighborhood_faults",
    "spread_faults",
    "scenario_suite",
    # networks
    "InterconnectionNetwork",
    "ExplicitNetwork",
    "Hypercube",
    "CrossedCube",
    "TwistedCube",
    "FoldedHypercube",
    "EnhancedHypercube",
    "AugmentedCube",
    "ShuffleCube",
    "TwistedNCube",
    "KAryNCube",
    "AugmentedKAryNCube",
    "StarGraph",
    "NKStarGraph",
    "PancakeGraph",
    "ArrangementGraph",
    "available_families",
    "create_network",
]
