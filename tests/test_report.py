"""Tests of the one-shot Markdown report generator."""

import pytest

from repro.analysis.points import EXPERIMENTS, registered_experiments
from repro.analysis.report import (
    ReportConfig,
    generate_report,
    save_report_markdown,
)
from repro.errors import ReproError


@pytest.fixture(scope="module")
def quick_report() -> str:
    # A few sections, each on its definition's quick config.
    config = ReportConfig(quick=True, include=("stats", "kernels",
                                               "reorder"))
    return generate_report(config)


class TestGenerateReport:
    def test_title_and_sections(self, quick_report):
        assert quick_report.startswith("# Reproduction report")
        assert "## EXP-S1" in quick_report
        assert "## EXP-K1" in quick_report
        assert "## EXP-X2" in quick_report

    def test_excluded_sections_absent(self, quick_report):
        assert "EXP-A1" not in quick_report
        assert "EXP-O1" not in quick_report

    def test_tables_render_in_code_blocks(self, quick_report):
        assert "```" in quick_report
        assert "cost(best-pair)" in quick_report

    def test_measured_numbers_present(self, quick_report):
        assert "average reduction" in quick_report
        assert "%" in quick_report

    def test_stats_section_holds_the_marginal_tables(self, quick_report):
        for axis in ("N", "M", "K"):
            assert f"EXP-S2: reduction marginalized per {axis}" \
                in quick_report

    def test_sections_follow_the_include_order(self, quick_report):
        positions = [quick_report.index(f"## {section}")
                     for section in ("EXP-S1", "EXP-K1", "EXP-X2")]
        assert positions == sorted(positions)

    def test_quick_uses_every_definitions_quick_config(self):
        """``quick`` shrinks every experiment, not only EXP-S1: the
        quick EXP-K1 runs the eight-kernel core8 suite, not all 26."""
        report = generate_report(ReportConfig(quick=True,
                                              include=("kernels",)))
        assert "fir8" in report
        assert "autocorr4" not in report

    def test_default_is_the_table_in_its_order(self):
        # The paper's order: its Results section, then the ablations
        # and the extensions.
        assert ReportConfig().include == tuple(
            definition.experiment for definition in EXPERIMENTS) == (
            "stats", "distributions", "kernels", "pathcover", "costmodel",
            "merging", "offset", "modreg", "reorder", "arraylayout")
        assert sorted(ReportConfig().include) \
            == list(registered_experiments())

    def test_unknown_id_fails_and_lists_the_registered_ones(self):
        with pytest.raises(ReproError) as error:
            generate_report(ReportConfig(quick=True,
                                         include=("stats", "bogus")))
        assert "'bogus'" in str(error.value)
        assert ", ".join(registered_experiments()) in str(error.value)


class TestSaveReport:
    def test_writes_file(self, tmp_path):
        target = save_report_markdown(
            tmp_path / "out" / "REPORT.md",
            ReportConfig(quick=True, include=("stats",)))
        assert target.exists()
        assert target.read_text().startswith("# Reproduction report")

    def test_cli_report(self, tmp_path, capsys):
        from repro.cli.main import main
        target = tmp_path / "r.md"
        assert main(["report", "-o", str(target), "--quick",
                     "--only", "stats,kernels"]) == 0
        assert target.exists()
        assert "report written" in capsys.readouterr().out

    def test_cli_report_rejects_unknown_ids(self, tmp_path, capsys):
        from repro.cli.main import main
        target = tmp_path / "r.md"
        assert main(["report", "-o", str(target), "--only",
                     "bogus"]) == 1
        assert "unknown experiment 'bogus'" in capsys.readouterr().err
        assert not target.exists()
