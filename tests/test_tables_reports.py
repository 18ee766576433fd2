"""Unit tests for tables, stats helpers, and JSON reports."""

import math

import pytest

from repro.analysis.report import load_report, save_report, to_jsonable
from repro.analysis.stats import (
    confidence_interval95,
    mean,
    percent_reduction,
    stdev,
)
from repro.errors import ExperimentError
from repro.merging.cost import CostModel
from repro.pathcover.paths import Path
from repro.tables import Column, Table


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ExperimentError):
            mean([])

    def test_stdev(self):
        assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(
            math.sqrt(32 / 7))

    def test_stdev_singleton(self):
        assert stdev([5]) == 0.0

    def test_confidence_interval(self):
        low, high = confidence_interval95([10.0] * 16)
        assert low == high == 10.0
        low, high = confidence_interval95([0.0, 10.0] * 8)
        assert low < 5.0 < high

    def test_percent_reduction(self):
        assert percent_reduction(10, 6) == pytest.approx(40.0)
        assert percent_reduction(0, 0) == 0.0
        assert percent_reduction(10, 12) == pytest.approx(-20.0)


class TestTable:
    def test_render_alignment_and_formats(self):
        table = Table([
            Column("name", "name", align="<"),
            Column("value", "value", ".2f"),
        ], title="demo")
        table.add_row(name="alpha", value=1.5)
        table.add_row(name="b", value=22.125)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert set(lines[2]) == {"-"}  # header rule
        assert "alpha" in lines[3]
        assert "22.12" in text
        assert "1.50" in text

    def test_none_renders_as_dash(self):
        table = Table([Column("x", "x", ".1f")])
        table.add_row(x=None)
        assert "-" in table.render()

    def test_missing_key_renders_empty(self):
        table = Table([Column("x", "x"), Column("y", "y")])
        table.add_row(x=3)
        assert table.render()  # no crash

    def test_empty_columns_rejected(self):
        with pytest.raises(ExperimentError):
            Table([])

    def test_str_is_render(self):
        table = Table([Column("x", "x")])
        table.add_row(x=1)
        assert str(table) == table.render()


class TestJsonable:
    def test_enum_and_tuple(self):
        assert to_jsonable(CostModel.INTRA) == "intra"
        assert to_jsonable((1, 2)) == [1, 2]

    def test_nested_dataclass(self):
        path = Path((0, 2))
        lowered = to_jsonable({"path": path})
        assert lowered == {"path": {"indices": [0, 2]}}

    def test_fallback_to_str(self):
        class Odd:
            def __str__(self):
                return "odd!"
        assert to_jsonable(Odd()) == "odd!"

    def test_scalars_pass_through(self):
        for value in (1, 1.5, "x", True, None):
            assert to_jsonable(value) == value


class TestReports:
    def test_round_trip(self, tmp_path):
        payload = {"rows": [(1, 2), (3, 4)], "model": CostModel.STEADY_STATE}
        target = save_report(payload, tmp_path / "sub" / "report.json")
        assert target.exists()
        loaded = load_report(target)
        assert loaded == {"rows": [[1, 2], [3, 4]],
                          "model": "steady_state"}

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_report(tmp_path / "nope.json")
