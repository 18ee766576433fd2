"""Evaluation harness: the paper's Results section, reproducible.

* :mod:`repro.analysis.experiments` -- the experiments' configs and
  summaries, and :func:`run_experiment`, the one way to run any of them
  by id (``run_experiment("pathcover", config)``);
  :func:`run_statistical_comparison` is EXP-S1's typed shorthand.
* :mod:`repro.analysis.points` -- the experiment table: the ten
  per-point definitions (EXP-S1/S3, EXP-K1, EXP-A1..A3, EXP-O1,
  EXP-X1..X3) and the :class:`~repro.analysis.points.ExperimentPointJob`
  points they shard into; what ``repro-agu experiment NAME`` and the
  Markdown report iterate.  Not imported here: :func:`run_experiment`
  and the CLI import it on first use.
* :mod:`repro.analysis.report` -- one Markdown report over the table,
  and JSON persistence of experiment runs.
* :mod:`repro.analysis.render` -- the experiments' text tables, built
  on :mod:`repro.tables` (``Column`` and ``Table`` are re-exported
  here).
* :mod:`repro.analysis.stats` -- small statistics helpers.
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
from repro.analysis.report import load_report, save_report, to_jsonable
from repro.analysis.stats import confidence_interval95, mean, percent_reduction, stdev
from repro.tables import Column, Table

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
