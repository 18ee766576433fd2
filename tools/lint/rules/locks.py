"""LOCK-DISCIPLINE: shared mutable state only under its lock.

Contract: ``CompileService``, ``ServeClient`` and ``TieredCache``
are explicitly multi-threaded -- socketserver handler threads, the
dispatcher, and batch callers all touch one object -- and their correctness
argument is "every access to shared state happens inside ``with
self._lock:``".  This rule checks that argument statically with a
conservative intraprocedural pass:

* A class participates when its ``__init__`` assigns at least one
  ``threading.Lock`` / ``RLock`` / ``Condition`` to a ``self``
  attribute (classes without locks are single-threaded by design and
  skipped).
* Its *shared* attributes are those (re)assigned in any method other
  than ``__init__`` -- attributes only ever written at construction
  (configuration, the locks themselves) are immutable-after-publish
  and exempt, as are self-synchronizing ``threading.Event`` /
  ``queue.Queue`` attributes.
* Every first-level ``self.<shared>`` read or write must then sit
  lexically inside a ``with self.<some lock attr>:`` block.

Project conventions honored: methods named ``*_locked`` assert "caller
holds the lock" and are exempt (their *call sites* are checked
instead, being ordinary accesses); ``__init__`` / ``__getstate__`` /
``__setstate__`` / ``__del__`` run before or after the object is
shared and are exempt.  The pass is lexical, so a helper that is only
ever called under the lock must either follow the ``_locked`` naming
convention or carry a justified suppression.

The rule is a :class:`~lint.registry.ProjectRule` since PR 9: on top
of the per-class pass above, it consults the shared
:mod:`lint.project` call-graph model to flag *self-deadlocks* -- a
call made while holding a non-reentrant ``threading.Lock`` into a
method that (directly or transitively) re-acquires that same lock.
``RLock`` and bare ``Condition()`` attributes are reentrant and
exempt; ``Condition(self._lock)`` aliases follow the lock they wrap.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from lint.asthelpers import call_name, self_attribute
from lint.diagnostics import Diagnostic
from lint.project import project_model
from lint.registry import Module, ProjectRule, register

#: Call spellings that construct a mutual-exclusion primitive.
_LOCK_FACTORIES = {"threading.Lock", "threading.RLock",
                   "threading.Condition", "Lock", "RLock", "Condition"}

#: Call spellings that construct self-synchronizing objects: safe to
#: touch without holding the class lock.
_SELFSYNC_FACTORIES = {"threading.Event", "Event", "queue.Queue",
                       "Queue", "queue.SimpleQueue", "SimpleQueue",
                       "threading.Semaphore", "Semaphore",
                       "threading.BoundedSemaphore",
                       "BoundedSemaphore"}

#: Methods that run while the object is not yet (or no longer) shared.
_EXEMPT_METHODS = {"__init__", "__getstate__", "__setstate__",
                   "__del__"}


def _factory_of(value: ast.AST) -> str | None:
    if isinstance(value, ast.Call):
        return call_name(value)
    return None


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _init_assignments(init: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """``(attr, value)`` pairs for every ``self.attr = ...`` in
    ``__init__``."""
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self_attribute(target)
                if attr is not None:
                    yield attr, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            attr = self_attribute(node.target)
            if attr is not None:
                yield attr, node.value


def _assigned_attrs(method: ast.AST) -> set[str]:
    """First-level self attributes (re)assigned anywhere in a method
    (plain, augmented, and tuple-unpacking assignments)."""
    assigned: set[str] = set()
    for node in ast.walk(method):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            queue = [target]
            while queue:
                item = queue.pop()
                if isinstance(item, (ast.Tuple, ast.List)):
                    queue.extend(item.elts)
                    continue
                attr = self_attribute(item)
                if attr is not None:
                    assigned.add(attr)
    return assigned


class _LockScopeVisitor(ast.NodeVisitor):
    """Collect unlocked first-level accesses to shared attributes."""

    def __init__(self, shared: set[str], lock_attrs: set[str]):
        self._shared = shared
        self._lock_attrs = lock_attrs
        self._depth = 0  # nesting of with-lock blocks
        #: attr -> first offending node, in visit order.
        self.offences: dict[str, ast.AST] = {}

    def _is_lock_with(self, node: ast.With) -> bool:
        for item in node.items:
            attr = self_attribute(item.context_expr)
            if attr is not None and attr in self._lock_attrs:
                return True
        return False

    def visit_With(self, node: ast.With) -> None:
        if self._is_lock_with(node):
            for item in node.items:
                self.visit(item)
            self._depth += 1
            for statement in node.body:
                self.visit(statement)
            self._depth -= 1
            return
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attribute(node)
        if attr in self._shared and self._depth == 0 \
                and attr not in self.offences:
            self.offences[attr] = node
        self.generic_visit(node)


@register
class LockDisciplineRule(ProjectRule):
    """Flag unlocked accesses to lock-protected shared state."""

    rule_id = "LOCK-DISCIPLINE"
    description = ("attributes mutated after __init__ in lock-owning "
                   "classes may only be touched under `with "
                   "self.<lock>:`; calls that re-enter a held "
                   "non-reentrant lock are self-deadlocks")
    rationale = ("service objects are shared across handler "
                 "threads, the dispatcher, and batch callers; one "
                 "unlocked read is a race the runtime tests only "
                 "catch by luck")

    def check_project(self,
                      modules: Sequence[Module]) -> Iterable[Diagnostic]:
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module, node)
        yield from self._check_self_deadlocks(modules)

    def _check_self_deadlocks(self, modules: Sequence[Module],
                              ) -> Iterator[Diagnostic]:
        model = project_model(modules).lock_model()
        seen: set[tuple[str, int, str]] = set()
        for dead in model.self_deadlocks:
            line = getattr(dead.node, "lineno", 1)
            key = (dead.module.relpath, line, dead.lock.label)
            if key in seen:
                continue
            seen.add(key)
            if len(dead.path) > 1:
                chain = " -> ".join(
                    part.rsplit(".", 2)[-2] + "." +
                    part.rsplit(".", 2)[-1]
                    if part.count(".") >= 2 else part
                    for part in dead.path)
                how = f"calls into {chain}, which re-acquires"
            else:
                how = "re-acquires"
            yield self.diagnostic(
                dead.module, dead.node,
                f"{dead.unit.label} {how} non-reentrant lock "
                f"{dead.lock.label} already held here -- this "
                f"deadlocks the thread; drop the outer `with`, use "
                f"an RLock, or call an *_locked variant")

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> Iterator[Diagnostic]:
        init = next((method for method in _methods(cls)
                     if method.name == "__init__"), None)
        if init is None:
            return
        lock_attrs: set[str] = set()
        selfsync: set[str] = set()
        init_attrs: set[str] = set()
        for attr, value in _init_assignments(init):
            init_attrs.add(attr)
            factory = _factory_of(value)
            if factory in _LOCK_FACTORIES:
                lock_attrs.add(attr)
            elif factory in _SELFSYNC_FACTORIES:
                selfsync.add(attr)
        if not lock_attrs:
            return

        shared: set[str] = set()
        for method in _methods(cls):
            if method.name in _EXEMPT_METHODS:
                continue
            shared |= _assigned_attrs(method)
        shared -= lock_attrs | selfsync
        # Attributes never assigned in __init__ either are not part of
        # the declared shared state (properties, descriptors).
        shared &= init_attrs
        if not shared:
            return

        for method in _methods(cls):
            if method.name in _EXEMPT_METHODS \
                    or method.name.endswith("_locked"):
                continue
            visitor = _LockScopeVisitor(shared, lock_attrs)
            visitor.visit(method)
            for attr, node in visitor.offences.items():
                yield self.diagnostic(
                    module, node,
                    f"{cls.name}.{method.name} touches shared "
                    f"attribute {attr!r} outside `with self.<lock>:` "
                    f"(locks here: "
                    f"{', '.join(sorted(lock_attrs))}); lock the "
                    f"access, rename the helper *_locked, or justify "
                    f"a suppression")
