"""PICKLE-JOB: job classes must stay picklable.

Contract: the Job contract (``docs/ARCHITECTURE.md``) requires every
batch job to cross process and host boundaries as a pickle -- the
process pool and cache rebuilds depend on it.  The classic ways a job class silently loses
picklability are flagged in classes that *are* (or subclass) the
registered job types:

* a lambda stored on the instance or as a class-level default,
* a locally defined closure stored on the instance,
* an open file handle stored on the instance,
* module-level mutable state (a global list/dict/set) aliased onto
  the instance -- pickles fine but desynchronizes across processes,
  which breaks the "pure function of the job's fields" requirement.

``dataclasses.field(default_factory=lambda: ...)`` is fine (the
factory runs at construction; the lambda never lands on an instance).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from lint.asthelpers import call_name, dotted_name, self_attribute
from lint.diagnostics import Diagnostic
from lint.registry import Module, Rule, register

#: Class names whose (transitive, same-file) subclasses are job types.
JOB_BASE_NAMES = {"BatchJob", "ExperimentPointJob"}

#: Module-level call spellings producing mutable containers.
_MUTABLE_FACTORIES = {"list", "dict", "set", "collections.deque",
                      "deque", "defaultdict",
                      "collections.defaultdict"}


def _job_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Classes named as, or (same-file transitively) derived from, a
    registered job type."""
    job_names = set(JOB_BASE_NAMES)
    classes = [node for node in tree.body
               if isinstance(node, ast.ClassDef)]
    # Fixpoint over same-file inheritance chains.
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in job_names:
                continue
            bases = {dotted_name(base) for base in cls.bases}
            bases.discard(None)
            base_tails = {name.rsplit(".", 1)[-1] for name in bases
                          if name is not None}
            if base_tails & job_names:
                job_names.add(cls.name)
                changed = True
    for cls in classes:
        if cls.name in job_names:
            yield cls


def _module_level_mutables(tree: ast.Module) -> set[str]:
    """Names bound at module level to mutable containers."""
    mutables: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp,
                                     ast.SetComp)) \
            or (isinstance(value, ast.Call)
                and call_name(value) in _MUTABLE_FACTORIES)
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutables.add(target.id)
    return mutables


def _local_function_names(init: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(init)
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef))}


@register
class PicklableJobRule(Rule):
    """Flag unpicklable (or cross-process-unsafe) state on job
    classes."""

    rule_id = "PICKLE-JOB"
    description = ("job classes must not capture lambdas, closures, "
                   "open handles, or module-level mutable state")
    rationale = ("the Job contract pickles jobs across process/host "
                 "boundaries; captured lambdas and handles fail at "
                 "submit time, aliased globals desynchronize processes")

    def check_module(self, module: Module) -> Iterable[Diagnostic]:
        mutables = _module_level_mutables(module.tree)
        for cls in _job_classes(module.tree):
            yield from self._check_class(module, cls, mutables)

    def _check_class(self, module: Module, cls: ast.ClassDef,
                     mutables: set[str]) -> Iterator[Diagnostic]:
        # Class-level lambda defaults land on instances via dataclass
        # machinery and plain attribute lookup alike.
        for node in cls.body:
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                value = node.value
            if isinstance(value, ast.Lambda):
                yield self.diagnostic(
                    module, value,
                    f"job class {cls.name!r} stores a lambda as a "
                    f"class-level default; lambdas do not pickle -- "
                    f"use a module-level function or "
                    f"field(default_factory=...)")
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)) \
                    and method.name in ("__init__", "__post_init__"):
                yield from self._check_init(module, cls, method,
                                            mutables)

    def _check_init(self, module: Module, cls: ast.ClassDef,
                    init: ast.AST,
                    mutables: set[str]) -> Iterator[Diagnostic]:
        local_defs = _local_function_names(init)
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            stored = [target for target in node.targets
                      if self_attribute(target) is not None]
            if not stored:
                continue
            value = node.value
            if isinstance(value, ast.Lambda):
                yield self.diagnostic(
                    module, node,
                    f"job class {cls.name!r} stores a lambda on the "
                    f"instance; lambdas do not pickle")
            elif isinstance(value, ast.Name) \
                    and value.id in local_defs:
                yield self.diagnostic(
                    module, node,
                    f"job class {cls.name!r} stores the local "
                    f"function {value.id!r} on the instance; local "
                    f"closures do not pickle")
            elif isinstance(value, ast.Call) and (
                    call_name(value) == "open"
                    or (isinstance(value.func, ast.Attribute)
                        and value.func.attr == "open")):
                yield self.diagnostic(
                    module, node,
                    f"job class {cls.name!r} stores an open file "
                    f"handle on the instance; handles do not pickle "
                    f"-- store the path and open lazily in execute()")
            elif isinstance(value, ast.Name) and value.id in mutables:
                yield self.diagnostic(
                    module, node,
                    f"job class {cls.name!r} aliases module-level "
                    f"mutable state {value.id!r} onto the instance; "
                    f"each unpickling host gets its own divergent "
                    f"copy -- pass an immutable snapshot instead")
