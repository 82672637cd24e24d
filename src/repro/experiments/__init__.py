"""Experiment runners: every E1–E9 table (``python -m repro.experiments``)."""

from .reporting import ExperimentReport
from .runners import EXPERIMENTS, run_all, run_experiment
from .trials import TrialPlan, TrialResult, TrialSpec

__all__ = [
    "ExperimentReport",
    "EXPERIMENTS",
    "run_experiment",
    "run_all",
    "TrialPlan",
    "TrialResult",
    "TrialSpec",
]
