"""Core machinery: the MM model, ``Set_Builder`` and the general diagnoser."""

from .diagnosis import DiagnosisError, DiagnosisResult, GeneralDiagnoser, ProbeRecord, diagnose
from .faults import (
    FaultScenario,
    clustered_faults,
    neighborhood_faults,
    random_faults,
    scenario_suite,
    spread_faults,
)
from .partitions import (
    class_certifies_when_fault_free,
    minimal_certifying_level,
)
from .set_builder import SetBuilderResult, certificate_node_budget, set_builder
from .syndrome import (
    FaultyTesterBehavior,
    Syndrome,
    TableSyndrome,
    generate_syndrome,
    syndrome_table_size,
)
from .verification import assert_mm_semantics, consistent_fault_sets, is_consistent_fault_set

__all__ = [
    "DiagnosisError",
    "DiagnosisResult",
    "GeneralDiagnoser",
    "ProbeRecord",
    "diagnose",
    "FaultScenario",
    "random_faults",
    "clustered_faults",
    "neighborhood_faults",
    "spread_faults",
    "scenario_suite",
    "class_certifies_when_fault_free",
    "minimal_certifying_level",
    "SetBuilderResult",
    "set_builder",
    "certificate_node_budget",
    "Syndrome",
    "TableSyndrome",
    "FaultyTesterBehavior",
    "generate_syndrome",
    "syndrome_table_size",
    "is_consistent_fault_set",
    "consistent_fault_sets",
    "assert_mm_semantics",
]
