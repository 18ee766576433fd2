"""One-shot Markdown report over all experiments.

``generate_report()`` runs every experiment of the registry (optionally
on each one's scaled-down ``quick_config``) through
:func:`~repro.analysis.experiments.run_experiment` and produces a single
self-contained Markdown document: one section per experiment, holding
its definition's rendered tables and headline -- the release artifact a
reviewer would ask for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.experiments import run_experiment
from repro.batch.registry import get_experiment


@dataclass(frozen=True)
class ReportConfig:
    """Which experiments the report runs, in section order, and on
    which configs (each one's default, or its quick one)."""

    quick: bool = False
    title: str = ("Reproduction report: Register-Constrained Address "
                  "Computation in DSP Programs (DATE 1998)")
    #: Registry ids, in the paper's order: its Results section, then
    #: the ablations and the extensions.
    include: tuple[str, ...] = field(default=(
        "stats", "distributions", "kernels", "pathcover", "costmodel",
        "merging", "offset", "modreg", "reorder", "arraylayout"))


def _code_block(text: str) -> str:
    return "```\n" + text.rstrip("\n") + "\n```\n"


def generate_report(config: ReportConfig | None = None) -> str:
    """Run the experiments and return the Markdown report text.

    An unknown id in ``config.include`` raises a
    :class:`~repro.errors.BatchError` naming the registered ones,
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
        tables = definition.render(summary) if definition.render else ()
        sections.extend(_code_block(table.render()) for table in tables)
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
