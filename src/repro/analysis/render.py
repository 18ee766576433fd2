"""Render experiment summaries as text tables.

Shared by ``repro-agu experiment ...`` and ``repro-agu report`` (via
each experiment's registered ``render``), so both print identical rows
for the same experiment.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    ArrayLayoutAblationSummary,
    CostModelAblationSummary,
    DistributionSensitivitySummary,
    KernelComparisonSummary,
    MergingAblationSummary,
    ModRegAblationSummary,
    OffsetComparisonSummary,
    PathCoverAblationSummary,
    ReorderAblationSummary,
    StatisticalSummary,
    marginalize,
)
from repro.analysis.tables import Column, Table


def statistical_table(summary: StatisticalSummary) -> Table:
    """EXP-S1: one row per (N, M, K) grid point."""
    table = Table([
        Column("N", "n"), Column("M", "m"), Column("K", "k"),
        Column("patterns", "n_patterns"),
        Column("mean K~", "mean_k_tilde", ".2f"),
        Column("constrained", "constrained_fraction", ".0%"),
        Column("cost(best-pair)", "mean_optimized", ".2f"),
        Column("cost(naive)", "mean_naive", ".2f"),
        Column("reduction", "reduction_pct", "+.1f"),
    ], title="EXP-S1: best-pair vs naive merging on random patterns "
             "(unit-cost computations per iteration)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def statistical_marginal_table(summary: StatisticalSummary,
                               axis: str) -> Table:
    """EXP-S2: EXP-S1 marginalized over one parameter axis."""
    table = Table([
        Column(axis.upper(), axis),
        Column("cost(best-pair)", "mean_optimized", ".2f"),
        Column("cost(naive)", "mean_naive", ".2f"),
        Column("reduction", "reduction_pct", "+.1f"),
    ], title=f"EXP-S2: reduction marginalized per {axis.upper()}")
    for row in marginalize(summary, axis):
        table.add_row(**row.__dict__)
    return table


def distribution_table(summary: DistributionSensitivitySummary) -> Table:
    """EXP-S3: the headline reduction under each offset distribution."""
    table = Table([
        Column("distribution", "distribution", align="<"),
        Column("cost(best-pair)", "mean_optimized", ".2f"),
        Column("cost(naive)", "mean_naive", ".2f"),
        Column("avg reduction", "average_reduction_pct", "+.1f"),
        Column("overall", "overall_reduction_pct", "+.1f"),
    ], title="EXP-S3: reduction vs naive per offset distribution")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def kernel_table(summary: KernelComparisonSummary) -> Table:
    """EXP-K1: per-kernel baseline vs optimized accounting."""
    table = Table([
        Column("kernel", "kernel", align="<"),
        Column("N", "n_accesses"),
        Column("K~", "k_tilde"),
        Column("regs", "registers_used"),
        Column("ovh(base)", "baseline_overhead"),
        Column("ovh(opt)", "optimized_overhead"),
        Column("ovh red.", "overhead_reduction_pct", "+.1f"),
        Column("instr(base)", "baseline_instructions"),
        Column("instr(opt)", "optimized_instructions"),
        Column("speedup", "speed_improvement_pct", "+.1f"),
    ], title=f"EXP-K1: DSP kernels on {summary.config.spec} "
             "(per-iteration, simulator-audited)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def path_cover_table(summary: PathCoverAblationSummary) -> Table:
    """EXP-A1: bound tightness and search effort.  "DFS nodes" counts
    the depth-first search only: a group that a bound or the root
    assignment settles counts 0."""
    table = Table([
        Column("N", "n"), Column("M", "m"),
        Column("LB", "mean_lower_bound", ".2f"),
        Column("K~", "mean_k_tilde", ".2f"),
        Column("greedy", "mean_greedy", ".2f"),
        Column("LB tight", "lb_tight_fraction", ".0%"),
        Column("greedy tight", "greedy_tight_fraction", ".0%"),
        Column("proven", "exact_fraction", ".0%"),
        Column("DFS nodes", "mean_nodes", ".0f"),
        Column("exact ms", "mean_exact_ms", ".2f"),
        Column("greedy ms", "mean_greedy_ms", ".2f"),
    ], title="EXP-A1: phase-1 bounds and exact search on random patterns")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def cost_model_table(summary: CostModelAblationSummary) -> Table:
    """EXP-A2: steady-state cost paid under each merging cost model."""
    table = Table([
        Column("N", "n"), Column("M", "m"), Column("K", "k"),
        Column("steady cost (merged w/ intra)",
               "mean_steady_when_merged_intra", ".2f"),
        Column("steady cost (merged w/ steady)",
               "mean_steady_when_merged_steady", ".2f"),
        Column("saved", "penalty_pct", "+.1f"),
    ], title="EXP-A2: cost-model ablation (what ignoring wrap-around "
             "during merging costs)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def modreg_table(summary: ModRegAblationSummary) -> Table:
    """EXP-X1: cost vs modify-register count (MR extension)."""
    table = Table([
        Column("N", "n"), Column("K", "k"),
        Column("MRs", "n_modify_registers"),
        Column("cost", "mean_cost", ".2f"),
        Column("vs no-MR", "reduction_vs_no_mr_pct", "+.1f"),
    ], title="EXP-X1: modify-register extension (residual addressing "
             "cost per iteration)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def reorder_table(summary: ReorderAblationSummary) -> Table:
    """EXP-X2: fixed program order vs the reordering extension."""
    table = Table([
        Column("N", "n"), Column("K", "k"),
        Column("fixed order", "mean_fixed_order", ".2f"),
        Column("reordered", "mean_reordered", ".2f"),
        Column("reduction", "reduction_pct", "+.1f"),
        Column("reordered%", "reordered_fraction", ".0%"),
    ], title="EXP-X2: access-reordering extension (unit-cost "
             "computations per iteration)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def array_layout_table(summary: ArrayLayoutAblationSummary) -> Table:
    """EXP-X3: guard-gap layout vs optimized array placement."""
    table = Table([
        Column("N", "n"), Column("K", "k"),
        Column("default layout", "mean_default", ".2f"),
        Column("optimized layout", "mean_optimized", ".2f"),
        Column("reduction", "reduction_pct", "+.1f"),
    ], title="EXP-X3: array-layout extension (unit-cost computations "
             "per iteration)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table


def offset_soa_table(summary: OffsetComparisonSummary) -> Table:
    """EXP-O1 (SOA): heuristics vs OFU baseline vs optimum."""
    table = Table([
        Column("vars", "n_variables"), Column("len", "length"),
        Column("OFU", "mean_ofu", ".2f"),
        Column("Liao", "mean_liao", ".2f"),
        Column("tie-break", "mean_tiebreak", ".2f"),
        Column("optimal", "mean_optimal", ".2f"),
        Column("Liao red.", "liao_reduction_pct", "+.1f"),
        Column("tie-break red.", "tiebreak_reduction_pct", "+.1f"),
    ], title="EXP-O1a: simple offset assignment (cost per sequence)")
    for row in summary.soa_rows:
        table.add_row(**row.__dict__)
    return table


def offset_goa_table(summary: OffsetComparisonSummary) -> Table:
    """EXP-O1 (GOA): greedy partitioning vs round-robin baseline."""
    table = Table([
        Column("vars", "n_variables"), Column("len", "length"),
        Column("k", "k"),
        Column("first-use", "mean_first_use", ".2f"),
        Column("greedy", "mean_greedy", ".2f"),
        Column("reduction", "reduction_pct", "+.1f"),
    ], title="EXP-O1b: general offset assignment over k address "
             "registers")
    for row in summary.goa_rows:
        table.add_row(**row.__dict__)
    return table


def merging_table(summary: MergingAblationSummary) -> Table:
    """EXP-A3: best-pair vs naive vs the exhaustive optimum."""
    table = Table([
        Column("N", "n"), Column("M", "m"), Column("K", "k"),
        Column("optimal", "mean_optimal", ".2f"),
        Column("best-pair", "mean_best_pair", ".2f"),
        Column("naive/random", "mean_naive_random", ".2f"),
        Column("naive/first", "mean_naive_first", ".2f"),
        Column("hits opt", "best_pair_optimal_fraction", ".0%"),
        Column("gap", "best_pair_gap_pct", "+.1f"),
    ], title="EXP-A3: merging strategies vs the exhaustive optimum "
             "(small instances)")
    for row in summary.rows:
        table.add_row(**row.__dict__)
    return table
