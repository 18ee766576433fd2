"""Tests of the experiment harness (scaled-down configurations)."""

import pytest

from repro.analysis.experiments import (
    CostModelAblationConfig,
    KernelComparisonConfig,
    MergingAblationConfig,
    OffsetComparisonConfig,
    PathCoverAblationConfig,
    StatisticalConfig,
    marginalize,
    run_experiment,
    run_statistical_comparison,
)
from repro.agu.model import AguSpec
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def stats_summary():
    return run_statistical_comparison(StatisticalConfig(
        n_values=(10, 16), m_values=(1, 2), k_values=(2, 3),
        patterns_per_config=6, naive_repeats=3, seed=7))


class TestStatisticalComparison:
    def test_grid_shape(self, stats_summary):
        assert len(stats_summary.rows) == 2 * 2 * 2

    def test_rows_internally_consistent(self, stats_summary):
        for row in stats_summary.rows:
            assert row.n_patterns == 6
            assert 0 <= row.constrained_fraction <= 1
            assert row.mean_optimized >= 0
            assert row.mean_k_tilde >= 1

    def test_heuristic_beats_naive_overall(self, stats_summary):
        # The paper's headline claim, on the scaled-down grid: the
        # optimized allocator must win on aggregate.
        assert stats_summary.overall_reduction_pct > 0
        assert stats_summary.average_reduction_pct > 0

    def test_optimized_never_above_naive_mean_per_row(self, stats_summary):
        for row in stats_summary.rows:
            # Per-row means: best-pair is compared against the *average*
            # of random merge orders, which it beats or matches.
            assert row.mean_optimized <= row.mean_naive + 1e-9

    def test_deterministic(self, stats_summary):
        again = run_statistical_comparison(StatisticalConfig(
            n_values=(10, 16), m_values=(1, 2), k_values=(2, 3),
            patterns_per_config=6, naive_repeats=3, seed=7))
        assert again.rows == stats_summary.rows

    def test_marginalize_axes(self, stats_summary):
        by_n = marginalize(stats_summary, "n")
        assert [row.n for row in by_n] == [10, 16]
        assert all(row.m == -1 and row.k == -1 for row in by_n)
        by_k = marginalize(stats_summary, "k")
        assert [row.k for row in by_k] == [2, 3]

    def test_marginalize_preserves_pattern_counts(self, stats_summary):
        by_m = marginalize(stats_summary, "m")
        assert sum(row.n_patterns for row in by_m) == \
            sum(row.n_patterns for row in stats_summary.rows)

    def test_marginalize_bad_axis(self, stats_summary):
        with pytest.raises(ExperimentError):
            marginalize(stats_summary, "q")


class TestKernelComparison:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_experiment("kernels", KernelComparisonConfig(
            kernel_names=("paper_example", "fir8", "iir_biquad_df1",
                          "downsample2"),
            spec=AguSpec(4, 1), simulate_iterations=8))

    def test_rows_per_kernel(self, summary):
        assert [row.kernel for row in summary.rows] == [
            "paper_example", "fir8", "iir_biquad_df1", "downsample2"]

    def test_baseline_overhead_is_n(self, summary):
        for row in summary.rows:
            assert row.baseline_overhead == row.n_accesses

    def test_optimized_never_worse(self, summary):
        for row in summary.rows:
            assert row.optimized_overhead <= row.baseline_overhead
            assert row.overhead_reduction_pct >= 0
            assert row.speed_improvement_pct >= 0

    def test_means(self, summary):
        assert summary.mean_overhead_reduction_pct > 0
        assert summary.mean_speed_improvement_pct > 0


class TestPathCoverAblation:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_experiment("pathcover", PathCoverAblationConfig(
            n_values=(8, 12), m_values=(1,), patterns_per_config=6))

    def test_bounds_bracket(self, summary):
        for row in summary.rows:
            assert row.mean_lower_bound <= row.mean_k_tilde + 1e-9
            assert row.mean_k_tilde <= row.mean_greedy + 1e-9

    def test_fractions_valid(self, summary):
        for row in summary.rows:
            for value in (row.lb_tight_fraction,
                          row.greedy_tight_fraction,
                          row.exact_fraction):
                assert 0 <= value <= 1


class TestCostModelAblation:
    def test_steady_merging_never_pays_more(self):
        summary = run_experiment("costmodel", CostModelAblationConfig(
            n_values=(10, 14), m_values=(1,), k_values=(2,),
            patterns_per_config=6))
        for row in summary.rows:
            assert row.mean_steady_when_merged_steady <= \
                row.mean_steady_when_merged_intra + 1e-9
        assert summary.mean_penalty_pct >= 0


class TestMergingAblation:
    def test_ordering_optimal_best_naive(self):
        summary = run_experiment("merging", MergingAblationConfig(
            n_values=(8,), m_values=(1,), k_values=(2,),
            patterns_per_config=6))
        for row in summary.rows:
            assert row.mean_optimal <= row.mean_best_pair + 1e-9
            assert 0 <= row.best_pair_optimal_fraction <= 1
            assert row.best_pair_gap_pct >= 0


class TestDistributionSensitivity:
    def test_wins_on_aggregate_across_distributions(self):
        """Best-pair merging is a heuristic: on a micro-sample a single
        distribution can fluctuate, but the aggregate must win (the
        full-grid per-distribution claim is asserted by the bench)."""
        from repro.analysis.experiments import (
            DistributionSensitivityConfig,
        )
        summary = run_experiment(
            "distributions", DistributionSensitivityConfig(
                n_values=(12, 20), m_values=(1, 2), k_values=(2,),
                patterns_per_config=8))
        assert len(summary.rows) == 4
        total_optimized = sum(row.mean_optimized for row in summary.rows)
        total_naive = sum(row.mean_naive for row in summary.rows)
        assert total_optimized < total_naive


class TestOffsetComparison:
    @pytest.fixture(scope="class")
    def summary(self):
        return run_experiment("offset", OffsetComparisonConfig(
            v_values=(5, 7), length_values=(16,),
            sequences_per_config=6, goa_k_values=(2,)))

    def test_soa_heuristics_beat_ofu(self, summary):
        for row in summary.soa_rows:
            assert row.mean_liao <= row.mean_ofu + 1e-9
            assert row.mean_tiebreak <= row.mean_ofu + 1e-9

    def test_optimal_is_floor(self, summary):
        for row in summary.soa_rows:
            assert row.mean_optimal is not None  # v <= 8 here
            assert row.mean_optimal <= row.mean_liao + 1e-9
            assert row.mean_optimal <= row.mean_tiebreak + 1e-9

    def test_goa_rows_present(self, summary):
        assert len(summary.goa_rows) == 2  # one per (v, length) pair
