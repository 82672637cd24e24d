"""Operation accounting, analytical formulas, report utilities — and the
codebase-aware static analyzer (``python -m repro.analysis``)."""

from .baseline import apply_baseline, load_baseline, save_baseline
from .formulas import set_builder_lookup_bound, theorem_time_bound
from .linting import (
    TOOL_RULE_ID,
    AnalysisReport,
    Finding,
    ProjectRule,
    Rule,
    SourceFile,
    collect_files,
    load_source,
    run_analysis,
)
from .reporting import ScalingFit, fit_against_model, fit_power_law, format_table
from .rules import ALL_RULES, default_rules, rule_table

__all__ = [
    "set_builder_lookup_bound",
    "theorem_time_bound",
    "format_table",
    "ScalingFit",
    "fit_power_law",
    "fit_against_model",
    # static analysis
    "Finding",
    "Rule",
    "ProjectRule",
    "SourceFile",
    "AnalysisReport",
    "collect_files",
    "load_source",
    "run_analysis",
    "TOOL_RULE_ID",
    "ALL_RULES",
    "default_rules",
    "rule_table",
    "apply_baseline",
    "load_baseline",
    "save_baseline",
]
