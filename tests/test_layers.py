"""The layer map of ``docs/ARCHITECTURE.md``: lower layers never import
higher ones.

Every module under ``src/repro`` is parsed, and every ``repro.*``
import in it -- those inside functions too -- must name a package of
the same layer or a lower one.  There are no exceptions.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The packages of ``repro`` (and its leaf modules), lowest layer
#: first; packages on one line share a layer.  ``repro`` itself is
#: the facade: it re-exports the lower layers, and the CLI reads its
#: ``__version__``.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("errors", "scope", "tables"),
    ("ir",),
    ("graph", "workloads", "offset"),
    ("pathcover",),
    ("merging",),
    ("arraylayout",),
    ("agu",),
    ("core",),
    ("modreg", "reorder"),
    ("batch",),
    ("analysis",),
    ("repro",),
    ("cli",),
)
RANK = {package: rank for rank, layer in enumerate(LAYERS)
        for package in layer}

MODULES = sorted((SRC / "repro").rglob("*.py"))


def package_of(module: str) -> str:
    """``repro.batch.engine`` -> ``batch``; ``repro`` -> ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def repro_imports(path: Path):
    """(line, imported module) for every absolute ``repro`` import."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name == "repro" or name.startswith("repro."):
                yield node.lineno, name


def test_every_package_has_a_layer():
    packages = {package_of(module_name(path)) for path in MODULES}
    assert packages == set(RANK)


@pytest.mark.parametrize("path", MODULES,
                         ids=[module_name(path) for path in MODULES])
def test_no_module_imports_a_higher_layer(path):
    importer = package_of(module_name(path))
    upward = [f"line {line}: {name}"
              for line, name in repro_imports(path)
              if RANK[package_of(name)] > RANK[importer]]
    assert not upward, (f"{module_name(path)} ({importer}) imports a "
                        f"higher layer: {upward}")
