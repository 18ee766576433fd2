"""The paper's claims, asserted on each experiment's full-size config.

Every registered experiment (EXP-S1..S3, EXP-K1, EXP-A1..A3, EXP-O1,
EXP-X1..X3) and the paper's Figure 1 are checked here against the
bands the paper reports, or against an exact or exhaustive oracle.
Each (experiment, config) run is computed once per module.  The
tables themselves are regenerated by ``repro-agu experiment NAME
[--json PATH]`` and ``repro-agu report``.
"""

from __future__ import annotations

import functools

from repro.agu.model import AguSpec
from repro.analysis.experiments import (
    ArrayLayoutAblationConfig,
    CostModelAblationConfig,
    DistributionSensitivityConfig,
    KernelComparisonConfig,
    MergingAblationConfig,
    ModRegAblationConfig,
    OffsetComparisonConfig,
    PathCoverAblationConfig,
    ReorderAblationConfig,
    StatisticalConfig,
    marginalize,
    run_experiment,
)
from repro.analysis.points import registered_experiments
from repro.analysis.selftest import run_self_test
from repro.graph.access_graph import AccessGraph
from repro.ir.builder import pattern_from_offsets
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
from repro.pathcover.paths import Path
from repro.pathcover.verify import is_zero_cost_path

from conftest import PAPER_OFFSETS

#: Run name -> (registered experiment id, the config its claims hold on).
RUNS = {
    "stats": ("stats", StatisticalConfig()),
    "stats-marginals": ("stats", StatisticalConfig(patterns_per_config=20)),
    "distributions": ("distributions", DistributionSensitivityConfig()),
    "kernels": ("kernels", KernelComparisonConfig(
        spec=AguSpec(4, 1, "kernel_eval"))),
    "kernels-tight": ("kernels", KernelComparisonConfig(
        spec=AguSpec(2, 1, "tight"))),
    "pathcover": ("pathcover", PathCoverAblationConfig()),
    "costmodel": ("costmodel", CostModelAblationConfig()),
    "merging": ("merging", MergingAblationConfig()),
    "offset": ("offset", OffsetComparisonConfig()),
    "modreg": ("modreg", ModRegAblationConfig()),
    "reorder": ("reorder", ReorderAblationConfig()),
    "arraylayout": ("arraylayout", ArrayLayoutAblationConfig()),
}


@functools.cache
def summary(run: str):
    """The summary of one entry of :data:`RUNS`, computed once."""
    experiment, config = RUNS[run]
    return run_experiment(experiment, config)


def test_every_registered_experiment_has_a_claim():
    claimed = {experiment for experiment, _config in RUNS.values()}
    assert set(registered_experiments()) <= claimed


def test_exp_s1_best_pair_cuts_about_40_percent():
    """EXP-S1 on the full (N, M, K) grid: the paper reports "about
    40 %" average reduction against naive merging."""
    result = summary("stats")
    assert result.average_reduction_pct > 20.0
    assert result.overall_reduction_pct > 15.0
    assert 25.0 <= result.average_reduction_pct <= 55.0
    # Cold run: every grid point was computed, none served from cache.
    assert result.n_points_compiled == len(result.rows)


def test_exp_s2_marginals_grow_with_k_and_stay_positive():
    result = summary("stats-marginals")
    marginals = {axis: marginalize(result, axis)
                 for axis in ("n", "m", "k")}
    # More registers -> more reduction (monotone in K).
    reductions = [row.reduction_pct for row in marginals["k"]]
    assert reductions == sorted(reductions)
    # The heuristic wins on every marginal.
    for rows in marginals.values():
        for row in rows:
            assert row.reduction_pct > 0


def test_exp_s3_best_pair_wins_under_every_distribution():
    for row in summary("distributions").rows:
        assert row.average_reduction_pct > 10.0, row.distribution
        assert row.mean_optimized <= row.mean_naive


def test_exp_k1_optimized_addressing_on_the_kernel_library():
    """EXP-K1 at K=4: [1] reports up to 30 % code size and 60 % speed
    against a regular C compiler."""
    result = summary("kernels")
    for row in result.rows:
        assert row.optimized_overhead <= row.baseline_overhead
    assert result.mean_overhead_reduction_pct > 50.0
    assert result.mean_speed_improvement_pct > 25.0


def test_exp_k1_under_register_pressure():
    """EXP-K1 at K=2, where merging must engage."""
    assert summary("kernels-tight").mean_overhead_reduction_pct > 30.0


def test_exp_a1_lower_bound_exact_greedy_bracket():
    result = summary("pathcover")
    for row in result.rows:
        # LB <= K~ <= greedy on every aggregate.
        assert row.mean_lower_bound <= row.mean_k_tilde + 1e-9
        assert row.mean_k_tilde <= row.mean_greedy + 1e-9
    # The matching bound is tight often enough overall to be useful.
    lb_rate = sum(row.lb_tight_fraction for row in result.rows) \
        / len(result.rows)
    assert lb_rate >= 0.3


def test_exp_a2_steady_state_merging_never_pays_more():
    result = summary("costmodel")
    for row in result.rows:
        assert row.mean_steady_when_merged_steady <= \
            row.mean_steady_when_merged_intra + 1e-9
    assert result.mean_penalty_pct >= 0.0


def test_exp_a3_best_pair_near_the_exhaustive_optimum():
    result = summary("merging")
    for row in result.rows:
        # optimal <= best-pair <= both naive baselines, per aggregate.
        assert row.mean_optimal <= row.mean_best_pair + 1e-9
        assert row.mean_best_pair <= row.mean_naive_random + 1e-9
        assert row.mean_best_pair <= row.mean_naive_first + 1e-9
        # The heuristic stays near the optimum on every grid point...
        assert row.best_pair_gap_pct <= 30.0
    # ... and hits it exactly on a solid share of instances overall.
    hit_rate = sum(row.best_pair_optimal_fraction for row in result.rows) \
        / len(result.rows)
    assert hit_rate >= 0.4


def test_exp_o1_soa_heuristics_between_ofu_and_the_optimum():
    result = summary("offset")
    for row in result.soa_rows:
        assert row.mean_liao <= row.mean_ofu + 1e-9
        assert row.mean_tiebreak <= row.mean_ofu + 1e-9
        if row.mean_optimal is not None:
            assert row.mean_optimal <= row.mean_tiebreak + 1e-9
    assert result.mean_tiebreak_reduction_pct >= \
        result.mean_liao_reduction_pct - 5.0


def test_exp_x1_more_modify_registers_never_hurt():
    by_config: dict[tuple[int, int], list] = {}
    for row in summary("modreg").rows:
        by_config.setdefault((row.n, row.k), []).append(row)
    for rows in by_config.values():
        rows.sort(key=lambda row: row.n_modify_registers)
        costs = [row.mean_cost for row in rows]
        # The free set only grows with the MR count.
        assert costs == sorted(costs, reverse=True)
        # And a 4-MR file recovers a substantial share of the cost.
        assert rows[-1].reduction_vs_no_mr_pct > 20.0


def test_exp_x2_reordering_never_loses():
    result = summary("reorder")
    for row in result.rows:
        assert row.mean_reordered <= row.mean_fixed_order + 1e-9
    assert result.mean_reduction_pct > 15.0


def test_exp_x3_array_placement_never_loses():
    result = summary("arraylayout")
    for row in result.rows:
        # The optimizer keeps the reference layout when it cannot win.
        assert row.mean_optimized <= row.mean_default + 1e-9
    assert result.mean_reduction_pct >= 0.0


def test_figure_1_access_graph():
    pattern = pattern_from_offsets(PAPER_OFFSETS)
    assert AccessGraph(pattern, 1).stats().n_nodes == 7
    # Paper narrative: (a_1, a_3, a_5, a_6) is a path in G...
    assert is_zero_cost_path(Path((0, 2, 4, 5)), pattern, 1,
                             include_wrap=False)
    # ... though its wrap-around is not free (steady-state view).
    assert not is_zero_cost_path(Path((0, 2, 4, 5)), pattern, 1,
                                 include_wrap=True)


def test_figure_1_k_tilde_is_3():
    result = minimum_zero_cost_cover(pattern_from_offsets(PAPER_OFFSETS), 1)
    assert result.k_tilde == 3
    assert result.optimal


def test_self_test_on_150_random_instances():
    """Allocate -> codegen -> simulate -> verify on random instances."""
    report = run_self_test(n_instances=150, seed=42)
    assert report.n_instances == 150
    assert report.n_accesses_verified > 0
    # The random mix must exercise both outcomes.
    assert report.n_zero_cost_allocations > 0
    assert report.n_constrained_allocations > 0
