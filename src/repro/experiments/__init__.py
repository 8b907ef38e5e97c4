"""Experiment harness regenerating every figure and table of the paper.

Each ``figure*`` function in :mod:`repro.experiments.figures` runs the
workload behind one figure of the paper's evaluation (scaled down to sizes
a pure-numpy reproduction can execute in seconds — README.md "Scale
profiles" lists the scales) and returns the same rows/series the paper reports.
The benchmark suite under ``benchmarks/`` calls these functions and prints
their renderings.
"""

from repro.experiments.workloads import (
    ScaleProfile,
    SCALES,
    available_scenarios,
    baseline_algorithms,
    evaluation_config,
    known_datasets,
    scale_from_env,
    scenario_dynamics,
)
from repro.experiments.runner import SuiteResult
from repro.experiments.report import format_table, table1_comparison, render_table1

__all__ = [
    "ScaleProfile",
    "SCALES",
    "available_scenarios",
    "baseline_algorithms",
    "evaluation_config",
    "known_datasets",
    "scale_from_env",
    "scenario_dynamics",
    "SuiteResult",
    "format_table",
    "table1_comparison",
    "render_table1",
]
