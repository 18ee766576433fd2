"""One-shot Markdown report over all experiments.

``generate_report()`` runs every experiment of the table
(:data:`repro.analysis.points.EXPERIMENTS`, in its order; optionally
on each one's scaled-down ``quick_config``) through
:func:`~repro.analysis.experiments.run_experiment` and produces a single
self-contained Markdown document: one section per experiment, holding
its definition's rendered tables and headline -- the release artifact a
reviewer would ask for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.experiments import run_experiment
from repro.analysis.points import EXPERIMENTS, get_experiment


@dataclass(frozen=True)
class ReportConfig:
    """Which experiments the report runs, in section order, and on
    which configs (each one's default, or its quick one)."""

    quick: bool = False
    title: str = ("Reproduction report: Register-Constrained Address "
                  "Computation in DSP Programs (DATE 1998)")
    #: Experiment ids; by default every one, in the table's order.
    include: tuple[str, ...] = tuple(
        definition.experiment for definition in EXPERIMENTS)


def _code_block(text: str) -> str:
    return "```\n" + text.rstrip("\n") + "\n```\n"


def generate_report(config: ReportConfig | None = None) -> str:
    """Run the experiments and return the Markdown report text.

    An unknown id in ``config.include`` raises a
    :class:`~repro.errors.BatchError` naming the known ones,
    before any experiment runs.
    """
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
