"""Experiment reports: one Markdown report over all experiments, and
JSON persistence of experiment results.

``generate_report()`` runs every experiment of the table
(:data:`repro.analysis.points.EXPERIMENTS`, in its order; optionally
on each one's scaled-down ``quick_config``) through
:func:`~repro.analysis.experiments.run_experiment` and produces a single
self-contained Markdown document: one section per experiment, holding
its definition's rendered tables and headline -- the release artifact a
reviewer would ask for.  The table is imported on first use, so
importing this module (or :mod:`repro.analysis`) does not load it.

Experiment summaries are nested frozen dataclasses; :func:`to_jsonable`
lowers them (plus enums, tuples, paths) to plain JSON types so
:func:`save_report` can archive runs under ``results/`` and they can be
compared across revisions; :func:`load_report` reads one back.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

from repro.analysis.experiments import run_experiment
from repro.errors import ExperimentError


def _table_ids() -> tuple[str, ...]:
    """Every experiment id, in the table's order."""
    from repro.analysis.points import EXPERIMENTS

    return tuple(definition.experiment for definition in EXPERIMENTS)


@dataclass(frozen=True)
class ReportConfig:
    """Which experiments the report runs, in section order, and on
    which configs (each one's default, or its quick one)."""

    quick: bool = False
    title: str = ("Reproduction report: Register-Constrained Address "
                  "Computation in DSP Programs (DATE 1998)")
    #: Experiment ids; by default every one, in the table's order.
    include: tuple[str, ...] = field(default_factory=_table_ids)


def _code_block(text: str) -> str:
    return "```\n" + text.rstrip("\n") + "\n```\n"


def generate_report(config: ReportConfig | None = None) -> str:
    """Run the experiments and return the Markdown report text.

    An unknown id in ``config.include`` raises a
    :class:`~repro.errors.BatchError` naming the known ones,
    before any experiment runs.
    """
    from repro.analysis.points import get_experiment

    if config is None:
        config = ReportConfig()
    definitions = [get_experiment(name) for name in config.include]
    sections: list[str] = [f"# {config.title}\n"]
    for definition in definitions:
        summary = run_experiment(
            definition.experiment, definition.quick_config()
            if config.quick else definition.default_config())
        sections.append(f"## {definition.title}\n")
        sections.extend(_code_block(table.render())
                        for table in definition.render(summary))
        if definition.headline is not None:
            sections.append(f"**Measured**: {definition.headline(summary)}\n")
    return "\n".join(sections)


def save_report_markdown(path: str | Path,
                         config: ReportConfig | None = None) -> Path:
    """Generate the report and write it to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(generate_report(config), encoding="utf-8")
    return target


def to_jsonable(value: Any) -> Any:
    """Recursively lower dataclasses/enums/tuples to JSON-able types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: to_jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Objects with a sensible str() (e.g. Path covers) degrade to text.
    return str(value)


def save_report(payload: Any, path: str | Path) -> Path:
    """Write a JSON report; parent directories are created."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(to_jsonable(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


def load_report(path: str | Path) -> Any:
    """Read back a JSON report written by :func:`save_report`."""
    target = Path(path)
    if not target.exists():
        raise ExperimentError(f"no report at {target}")
    with open(target, encoding="utf-8") as handle:
        return json.load(handle)
