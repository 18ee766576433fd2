"""Evaluation harness: the paper's Results section, reproducible.

* :mod:`repro.analysis.experiments` -- the experiments' configs and
  summaries, and :func:`run_experiment`, the one way to run any of them
  by registry id (``run_experiment("pathcover", config)``);
  :func:`run_statistical_comparison` is EXP-S1's typed shorthand.
* :mod:`repro.analysis.points` -- the registered per-point definitions
  (EXP-S1/S3, EXP-K1, EXP-A1..A3, EXP-O1, EXP-X1..X3): what
  ``repro-agu experiment NAME`` and the Markdown report iterate.
* :mod:`repro.analysis.report` -- one Markdown report over the registry.
* :mod:`repro.analysis.render` -- the experiments' text tables.
* :mod:`repro.analysis.stats` -- small statistics helpers.
* :mod:`repro.analysis.tables` -- fixed-width text tables.
* :mod:`repro.analysis.reports` -- JSON persistence of experiment runs.
"""

from repro.analysis.experiments import (
    ArrayLayoutAblationConfig,
    ArrayLayoutAblationSummary,
    DistributionSensitivityConfig,
    DistributionSensitivitySummary,
    KernelComparisonConfig,
    KernelComparisonRow,
    KernelComparisonSummary,
    MergingAblationConfig,
    MergingAblationSummary,
    PathCoverAblationConfig,
    PathCoverAblationSummary,
    CostModelAblationConfig,
    CostModelAblationSummary,
    ModRegAblationConfig,
    ModRegAblationSummary,
    OffsetComparisonConfig,
    OffsetComparisonSummary,
    ReorderAblationConfig,
    ReorderAblationSummary,
    StatisticalConfig,
    StatisticalRow,
    StatisticalSummary,
    marginalize,
    run_experiment,
    run_statistical_comparison,
)
from repro.analysis.reports import load_report, save_report, to_jsonable
from repro.analysis.stats import confidence_interval95, mean, percent_reduction, stdev
from repro.analysis.tables import Column, Table

__all__ = [
    "ArrayLayoutAblationConfig",
    "ArrayLayoutAblationSummary",
    "Column",
    "DistributionSensitivityConfig",
    "DistributionSensitivitySummary",
    "CostModelAblationConfig",
    "CostModelAblationSummary",
    "KernelComparisonConfig",
    "KernelComparisonRow",
    "KernelComparisonSummary",
    "MergingAblationConfig",
    "MergingAblationSummary",
    "ModRegAblationConfig",
    "ModRegAblationSummary",
    "OffsetComparisonConfig",
    "OffsetComparisonSummary",
    "PathCoverAblationConfig",
    "ReorderAblationConfig",
    "ReorderAblationSummary",
    "PathCoverAblationSummary",
    "StatisticalConfig",
    "StatisticalRow",
    "StatisticalSummary",
    "Table",
    "confidence_interval95",
    "load_report",
    "marginalize",
    "mean",
    "percent_reduction",
    "run_experiment",
    "run_statistical_comparison",
    "save_report",
    "stdev",
    "to_jsonable",
]
