"""Tests of the experiment table renderers (shared by CLI and benches)."""

import pytest

from repro.agu.model import AguSpec
from repro.analysis import render
from repro.analysis.experiments import (
    CostModelAblationConfig,
    KernelComparisonConfig,
    MergingAblationConfig,
    ModRegAblationConfig,
    OffsetComparisonConfig,
    PathCoverAblationConfig,
    ReorderAblationConfig,
    StatisticalConfig,
    run_experiment,
    run_statistical_comparison,
)


@pytest.fixture(scope="module")
def stats_summary():
    return run_statistical_comparison(StatisticalConfig(
        n_values=(10,), m_values=(1,), k_values=(2,),
        patterns_per_config=4, naive_repeats=2))


class TestStatisticalTables:
    def test_main_table(self, stats_summary):
        text = render.statistical_table(stats_summary).render()
        assert "EXP-S1" in text
        assert "reduction" in text
        assert text.count("\n") >= 4  # title + header + rule + 1 row

    @pytest.mark.parametrize("axis", ["n", "m", "k"])
    def test_marginal_tables(self, stats_summary, axis):
        text = render.statistical_marginal_table(stats_summary,
                                                 axis).render()
        assert f"per {axis.upper()}" in text


class TestOtherTables:
    def test_kernel_table(self):
        summary = run_experiment("kernels", KernelComparisonConfig(
            kernel_names=("paper_example",), spec=AguSpec(2, 1),
            simulate_iterations=4))
        text = render.kernel_table(summary).render()
        assert "paper_example" in text
        assert "ovh(base)" in text

    def test_path_cover_table(self):
        summary = run_experiment("pathcover", PathCoverAblationConfig(
            n_values=(8,), m_values=(1,), patterns_per_config=3))
        text = render.path_cover_table(summary).render()
        assert "EXP-A1" in text and "K~" in text

    def test_cost_model_table(self):
        summary = run_experiment("costmodel", CostModelAblationConfig(
            n_values=(10,), m_values=(1,), k_values=(2,),
            patterns_per_config=3))
        text = render.cost_model_table(summary).render()
        assert "EXP-A2" in text

    def test_merging_table(self):
        summary = run_experiment("merging", MergingAblationConfig(
            n_values=(8,), m_values=(1,), k_values=(2,),
            patterns_per_config=3))
        text = render.merging_table(summary).render()
        assert "EXP-A3" in text and "best-pair" in text

    def test_offset_tables(self):
        summary = run_experiment("offset", OffsetComparisonConfig(
            v_values=(5,), length_values=(12,), sequences_per_config=3,
            goa_k_values=(2,)))
        soa_text = render.offset_soa_table(summary).render()
        goa_text = render.offset_goa_table(summary).render()
        assert "Liao" in soa_text
        assert "EXP-O1b" in goa_text

    def test_modreg_table(self):
        summary = run_experiment("modreg", ModRegAblationConfig(
            n_values=(10,), k_values=(2,), mr_values=(0, 2),
            patterns_per_config=3))
        text = render.modreg_table(summary).render()
        assert "EXP-X1" in text and "MRs" in text

    def test_reorder_table(self):
        summary = run_experiment("reorder", ReorderAblationConfig(
            n_values=(8,), k_values=(2,), patterns_per_config=3))
        text = render.reorder_table(summary).render()
        assert "EXP-X2" in text and "reordered" in text
