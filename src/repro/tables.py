"""Fixed-width text tables for experiment and batch output.

The experiment CLI and report print the same rows the paper's Results
section talks about, and :meth:`repro.batch.engine.BatchReport.render`
prints a batch's per-job rows; this renderer keeps them aligned and
terminal-friendly without any dependency.  It imports only
:mod:`repro.errors`, so every layer may use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ExperimentError


@dataclass(frozen=True)
class Column:
    """One table column: header, row-key, format, alignment."""

    header: str
    key: str
    fmt: str = ""
    align: str = ">"

    def render(self, row: dict[str, Any]) -> str:
        """One row's value formatted for this column (None renders as
        '-')."""
        value = row.get(self.key, "")
        if value is None:
            return "-"
        if self.fmt:
            return format(value, self.fmt)
        return str(value)


class Table:
    """A simple fixed-width table built from dict rows."""

    def __init__(self, columns: Sequence[Column], title: str = ""):
        if not columns:
            raise ExperimentError("a table needs at least one column")
        self._columns = tuple(columns)
        self._title = title
        self._rows: list[dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        """Append one row (missing keys render as empty)."""
        self._rows.append(values)

    def render(self) -> str:
        """The table as aligned text with a header rule."""
        cells = [[column.render(row) for column in self._columns]
                 for row in self._rows]
        widths = [
            max(len(column.header),
                max((len(row[index]) for row in cells), default=0))
            for index, column in enumerate(self._columns)
        ]
        lines = []
        if self._title:
            lines.append(self._title)
        header = "  ".join(
            f"{column.header:{column.align}{width}}"
            for column, width in zip(self._columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(
                f"{value:{column.align}{width}}"
                for value, column, width in zip(row, self._columns, widths)))
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.render()
