"""DOCSTRING-PUBLIC: the docstring-coverage gate, as a lint rule.

The repo's dependency-free stand-in for ``interrogate``.  CI's docs
lint step runs it alone (``python tools/run_lint.py --select
DOCSTRING-PUBLIC``); the full lint run includes it too.  Two
enforcement tiers:

* every public name in the strict packages (:data:`STRICT_PACKAGES` --
  the ``repro`` API surface, ``repro.batch.*``, ``repro.cli.*``) must
  have a docstring: one diagnostic per missing name, at its ``def`` /
  ``class`` line, so they are individually suppressible;
* whole-tree coverage must stay at or above :data:`FAIL_UNDER`
  percent: one project-level diagnostic, attributed to the package
  root, since no single file owns the floor.

Only files under ``src/repro`` participate; tools, benchmarks, and
tests keep their own conventions.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from lint.diagnostics import Diagnostic
from lint.registry import Module, ProjectRule, register

#: Module prefixes that must sit at 100 % public docstring coverage.
STRICT_PACKAGES = ("repro", "repro.batch", "repro.cli")

#: Whole-tree floor, percent.  Raise when coverage improves; never
#: lower it.
FAIL_UNDER = 99.0

#: Only this subtree participates in the coverage count.
_SOURCE_PREFIX = "src/repro/"


def module_name(relpath: str) -> str:
    """Dotted module name for a repo-relative path under ``src/``."""
    parts = list(relpath.split("/"))
    if parts[0] == "src":
        parts = parts[1:]
    parts[-1] = parts[-1].removesuffix(".py")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def is_public(name: str) -> bool:
    """Public per the gate: no leading underscore (``__init__`` is
    covered by its class docstring and handled separately)."""
    return not name.startswith("_") or name == "__init__"


def is_trivial_body(node: ast.AST) -> bool:
    """Protocol/overload members whose body is just ``...`` (possibly
    after a docstring-less signature) document themselves elsewhere."""
    body = getattr(node, "body", [])
    return len(body) == 1 and isinstance(body[0], ast.Expr) \
        and isinstance(body[0].value, ast.Constant) \
        and body[0].value.value is Ellipsis


def has_overload_decorator(node: ast.AST) -> bool:
    """Whether a def carries ``@overload`` (plain or attribute form)."""
    for decorator in getattr(node, "decorator_list", []):
        name = decorator.id if isinstance(decorator, ast.Name) else \
            decorator.attr if isinstance(decorator, ast.Attribute) \
            else None
        if name == "overload":
            return True
    return False


def audit_tree(name: str,
               tree: ast.Module) -> tuple[list[str],
                                          list[tuple[str, ast.AST]]]:
    """``(documented, missing)`` public names for one parsed module;
    missing entries carry the node for line attribution."""
    documented: list[str] = []
    missing: list[tuple[str, ast.AST]] = []

    def record(qualified: str, node: ast.AST) -> None:
        if ast.get_docstring(node):
            documented.append(qualified)
        else:
            missing.append((qualified, node))

    record(name, tree)

    def walk(scope: str, body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not is_public(node.name):
                    continue
                qualified = f"{scope}.{node.name}"
                record(qualified, node)
                walk(qualified, node.body)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                if not is_public(node.name):
                    continue
                if node.name == "__init__":
                    # The class docstring documents construction.
                    continue
                if has_overload_decorator(node) \
                        or is_trivial_body(node):
                    continue
                record(f"{scope}.{node.name}", node)

    walk(name, tree.body)
    return documented, missing


def in_strict_packages(module: str) -> bool:
    """Whether ``module`` (dotted) falls under the 100 %-coverage
    set."""
    package = module.rsplit(".", 1)[0] if "." in module else module
    return module in STRICT_PACKAGES or package in STRICT_PACKAGES


@register
class PublicDocstringRule(ProjectRule):
    """Enforce public-docstring coverage over ``src/repro``."""

    rule_id = "DOCSTRING-PUBLIC"
    description = ("strict packages (repro, repro.batch, repro.cli) "
                   "need docstrings on every public name; the whole "
                   "tree must stay above the coverage floor")
    rationale = ("the API surface is the contract documentation; the "
                 "floor ratchets coverage so it can only improve")

    def check_project(self,
                      modules: Sequence[Module]) -> Iterable[Diagnostic]:
        n_documented = 0
        n_missing = 0
        floor_anchor: Module | None = None
        diagnostics: list[Diagnostic] = []
        for module in modules:
            if not module.relpath.startswith(_SOURCE_PREFIX):
                continue
            if floor_anchor is None \
                    or module.relpath == "src/repro/__init__.py":
                floor_anchor = module
            name = module_name(module.relpath)
            documented, missing = audit_tree(name, module.tree)
            n_documented += len(documented)
            n_missing += len(missing)
            if in_strict_packages(name):
                for qualified, node in missing:
                    diagnostics.append(self.diagnostic(
                        module, node,
                        f"public name {qualified!r} in a strict "
                        f"package has no docstring"))
        yield from diagnostics
        yield from self._floor(floor_anchor, n_documented, n_missing)

    def _floor(self, anchor: Module | None, n_documented: int,
               n_missing: int) -> Iterator[Diagnostic]:
        total = n_documented + n_missing
        if anchor is None or total == 0:
            return
        coverage = 100.0 * n_documented / total
        if coverage < FAIL_UNDER:
            yield Diagnostic(
                path=anchor.relpath, line=1, column=0,
                rule_id=self.rule_id,
                message=(f"tree-wide public docstring coverage "
                         f"{coverage:.1f} % ({n_documented}/{total}) "
                         f"is below the {FAIL_UNDER:.1f} % floor"))
