"""The inter-procedural project model whole-project rules build on.

Per-module rules see one AST at a time; the flagship project rules
(LOCK-ORDER and the inter-procedural half of LOCK-DISCIPLINE) need
to reason *across* files: which class a
``self.cache = TieredCache(...)`` attribute is, which method a
``self._stream_batch(...)`` call lands in, and which locks that callee
acquires.  This module builds that shared picture once per lint run:

* **Name resolution** -- every scanned file gets a dotted module name
  (``src/repro/batch/service.py`` -> ``repro.batch.service``); its
  ``import`` / ``from ... import`` statements become a symbol table,
  and re-exports (a package ``__init__`` importing a name to publish
  it) are followed through so ``from repro.batch import RemoteCache``
  resolves to the defining class.
* **Class/method index** -- top-level classes with their methods
  (nested functions included, bound to the enclosing class so their
  ``self.*`` calls resolve), base classes for method lookup, attribute
  types learned from ``self.attr = ClassName(...)`` in ``__init__``,
  and the lock attributes (``threading.Lock`` / ``RLock`` /
  ``Condition``) with reentrancy and ``Condition(self._lock)``
  aliasing.
* **Call resolution** -- ``self.m(...)``, ``self.attr.m(...)`` (via
  the attribute's learned type), sibling nested functions, module
  functions, imported functions, and ``ClassName(...)`` constructors.
* **The lock model** (:class:`LockModel`) -- per-method acquisition
  summaries computed to a fixpoint over the call graph, then a pass
  that records every "lock B taken while lock A held" edge (directly
  or through any resolved call chain) with a witness path, plus every
  call that re-enters a held *non-reentrant* lock (a guaranteed
  self-deadlock).

Everything stays syntactic and conservative: an unresolvable call
contributes nothing, so the analyses under-approximate rather than
guess.  The model is memoized per ``modules`` list, so the rules that
share it pay for one build per run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from lint.asthelpers import dotted_name, self_attribute
from lint.registry import Module

#: Fixpoint / recursion bounds.  Generous for this codebase (call
#: chains are 3-4 deep); they exist so a pathological fixture can
#: never hang the linter.
MAX_RESOLVE_DEPTH = 6
MAX_SUMMARY_ROUNDS = 25

#: Lock-constructor spellings, by reentrancy.  ``Condition`` is
#: handled separately: ``Condition(self._lock)`` *aliases* the given
#: lock, a bare ``Condition()`` owns a fresh RLock.
_NONREENTRANT = {"threading.Lock", "Lock"}
_REENTRANT = {"threading.RLock", "RLock"}
_CONDITION = {"threading.Condition", "Condition"}


def module_name(relpath: str) -> str:
    """Dotted module name for a repo-relative path (``src/`` and
    ``tools/`` are import roots and are stripped)."""
    parts = relpath.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if len(parts) > 1 and parts[0] in ("src", "tools"):
        parts = parts[1:]
    return ".".join(parts)


def walk_within(root: ast.AST | Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function, lambda,
    or class definitions -- the traversal every per-function analysis
    uses, so a closure's body is analyzed as its own unit, never
    double-counted in its parent's."""
    stack: list[ast.AST] = list(root) if isinstance(root, (list, tuple)) \
        else list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionUnit:
    """One analyzable function body: a method, a nested function
    (bound to the enclosing class through its closure), or a
    module-level function."""

    #: Fully qualified (``repro.batch.cluster.JobServer.lease``).
    qualname: str
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: The class whose ``self`` this body can see (via a method's
    #: ``self`` parameter or a closure over one), if any.
    cls: "ClassInfo | None" = None
    #: The enclosing function for nested defs.
    parent: "FunctionUnit | None" = None
    #: Directly nested named functions, by name.
    children: dict[str, "FunctionUnit"] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Short display name (class-qualified, module stripped)."""
        prefix = f"{self.module_name}."
        return self.qualname[len(prefix):] \
            if self.qualname.startswith(prefix) else self.qualname

    @property
    def module_name(self) -> str:
        """The dotted name of the defining module."""
        return module_name(self.module.relpath)

    def param_names(self) -> list[str]:
        """Positional parameter names, in order (``self`` included)."""
        args = self.node.args
        return [arg.arg for arg in args.posonlyargs + args.args]


@dataclass
class ClassInfo:
    """One top-level class: methods, bases, learned attribute types,
    and its lock attributes."""

    name: str
    qualname: str
    module: Module
    node: ast.ClassDef
    methods: dict[str, FunctionUnit] = field(default_factory=dict)
    #: Dotted base-class spellings (resolved through imports lazily).
    base_names: list[str] = field(default_factory=list)
    #: attr -> dotted constructor spelling from ``self.attr = X(...)``
    #: in ``__init__`` (only spellings; resolution happens on demand).
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attr -> ``"lock"`` | ``"rlock"`` | ``"alias:<attr>"``.
    lock_attrs: dict[str, str] = field(default_factory=dict)

    def resolve_lock(self, attr: str) -> tuple[str, bool] | None:
        """``(canonical_attr, reentrant)`` for a lock attribute,
        following ``Condition(self._lock)`` alias chains; ``None`` when
        ``attr`` is not a lock of this class."""
        seen: set[str] = set()
        while attr not in seen:
            seen.add(attr)
            kind = self.lock_attrs.get(attr)
            if kind is None:
                return None
            if kind.startswith("alias:"):
                attr = kind[len("alias:"):]
                continue
            return attr, kind == "rlock"
        return None


@dataclass(frozen=True, order=True)
class LockKey:
    """Identity of one lock: the owning class plus the attribute."""

    cls_qualname: str
    attr: str

    @property
    def label(self) -> str:
        """``Class.attr`` for messages (module stripped)."""
        return f"{self.cls_qualname.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass
class LockWitness:
    """One concrete "acquired B while holding A" observation."""

    held: LockKey
    acquired: LockKey
    module: Module
    node: ast.AST
    #: Qualified call chain from the holding method down to the
    #: acquisition (length 1 = acquired directly in the holder).
    path: tuple[str, ...]

    def describe(self) -> str:
        """Human-readable account for diagnostics."""
        chain = " -> ".join(part.rsplit(".", 2)[-2] + "." +
                            part.rsplit(".", 2)[-1]
                            if part.count(".") >= 2 else part
                            for part in self.path)
        via = f" (via {chain})" if len(self.path) > 1 else ""
        return (f"{self.module.relpath}:{getattr(self.node, 'lineno', 1)}"
                f" acquires {self.acquired.label} while holding "
                f"{self.held.label}{via}")


@dataclass
class SelfDeadlock:
    """A call chain that re-enters a held non-reentrant lock."""

    lock: LockKey
    module: Module
    node: ast.AST
    unit: FunctionUnit
    path: tuple[str, ...]


@dataclass
class LockModel:
    """The project-wide lock-acquisition facts rules consume."""

    #: (held, acquired) -> witnesses, deterministic order.
    edges: dict[tuple[LockKey, LockKey], list[LockWitness]] = \
        field(default_factory=dict)
    self_deadlocks: list[SelfDeadlock] = field(default_factory=list)
    #: Lock reentrancy by key.
    reentrant: dict[LockKey, bool] = field(default_factory=dict)

    def cycles(self) -> list[list[tuple[LockKey, LockKey]]]:
        """Every elementary lock-order cycle, as edge lists, in a
        deterministic order (the potential-deadlock report)."""
        adjacency: dict[LockKey, list[LockKey]] = {}
        for held, acquired in self.edges:
            adjacency.setdefault(held, []).append(acquired)
            adjacency.setdefault(acquired, [])
        for neighbors in adjacency.values():
            neighbors.sort()
        found: list[list[tuple[LockKey, LockKey]]] = []
        seen_cycles: set[tuple[LockKey, ...]] = set()
        for start in sorted(adjacency):
            path = [start]
            on_path = {start}

            def search() -> None:
                for nxt in adjacency.get(path[-1], ()):
                    if nxt == start and len(path) > 1:
                        cycle = tuple(path)
                        canon = self._canonical(cycle)
                        if canon not in seen_cycles:
                            seen_cycles.add(canon)
                            found.append(
                                [(cycle[i], cycle[(i + 1) % len(cycle)])
                                 for i in range(len(cycle))])
                    elif nxt not in on_path and nxt > start \
                            and len(path) < 8:
                        path.append(nxt)
                        on_path.add(nxt)
                        search()
                        on_path.discard(path.pop())

            search()
        return found

    @staticmethod
    def _canonical(cycle: tuple[LockKey, ...]) -> tuple[LockKey, ...]:
        pivot = cycle.index(min(cycle))
        return cycle[pivot:] + cycle[:pivot]


class Project:
    """The resolved cross-module view of one lint run's file set."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)
        #: dotted name -> Module (last writer wins on collisions,
        #: which only ambiguous fixture sets can produce).
        self.modules_by_name: dict[str, Module] = {}
        #: dotted module name -> {local name -> imported target}.
        self.imports: dict[str, dict[str, str]] = {}
        #: dotted module name -> {class name -> ClassInfo}.
        self.classes: dict[str, dict[str, ClassInfo]] = {}
        #: class qualname -> ClassInfo.
        self.classes_by_qualname: dict[str, ClassInfo] = {}
        #: dotted module name -> {function name -> FunctionUnit}.
        self.functions: dict[str, dict[str, FunctionUnit]] = {}
        #: Every analyzable function body, in scan order.
        self.units: list[FunctionUnit] = []
        self._lock_model: LockModel | None = None
        for module in self.modules:
            self._index_module(module)
        for infos in self.classes.values():
            for info in infos.values():
                self._learn_class_attrs(info)

    # -- construction --------------------------------------------------
    def _index_module(self, module: Module) -> None:
        name = module_name(module.relpath)
        self.modules_by_name[name] = module
        self.imports[name] = self._collect_imports(module, name)
        self.classes.setdefault(name, {})
        self.functions.setdefault(name, {})
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._index_class(module, name, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unit = self._make_unit(module, f"{name}.{stmt.name}",
                                       stmt, cls=None, parent=None)
                self.functions[name][stmt.name] = unit

    def _index_class(self, module: Module, modname: str,
                     cls_node: ast.ClassDef) -> None:
        info = ClassInfo(
            name=cls_node.name,
            qualname=f"{modname}.{cls_node.name}",
            module=module, node=cls_node,
            base_names=[base_name for base in cls_node.bases
                        if (base_name := dotted_name(base)) is not None])
        self.classes[modname][cls_node.name] = info
        self.classes_by_qualname[info.qualname] = info
        for stmt in cls_node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unit = self._make_unit(
                    module, f"{info.qualname}.{stmt.name}", stmt,
                    cls=info, parent=None)
                info.methods[stmt.name] = unit

    def _make_unit(self, module: Module, qualname: str,
                   node: ast.FunctionDef | ast.AsyncFunctionDef,
                   cls: ClassInfo | None,
                   parent: FunctionUnit | None) -> FunctionUnit:
        unit = FunctionUnit(qualname=qualname, module=module, node=node,
                            cls=cls, parent=parent)
        self.units.append(unit)
        # Nested named functions become units of their own, closed
        # over the same class context (threads started from methods).
        for inner in walk_within(node):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child = self._make_unit(
                    module, f"{qualname}.<locals>.{inner.name}", inner,
                    cls=cls, parent=unit)
                unit.children[inner.name] = child
        return unit

    @staticmethod
    def _collect_imports(module: Module, modname: str) -> dict[str, str]:
        table: dict[str, str] = {}
        is_package = module.relpath.endswith("__init__.py")
        parts = modname.split(".") if modname else []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        table[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        table[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    package = parts if is_package else parts[:-1]
                    package = package[:len(package) - (node.level - 1)] \
                        if node.level > 1 else package
                    base = ".".join(package + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base \
                        else alias.name
        return table

    def _learn_class_attrs(self, info: ClassInfo) -> None:
        init = info.methods.get("__init__")
        if init is None:
            return
        for node in walk_within(init.node):
            if not isinstance(node, ast.Assign) \
                    or not isinstance(node.value, ast.Call):
                continue
            spelling = dotted_name(node.value.func)
            if spelling is None:
                continue
            for target in node.targets:
                attr = self_attribute(target)
                if attr is None:
                    continue
                if spelling in _NONREENTRANT:
                    info.lock_attrs[attr] = "lock"
                elif spelling in _REENTRANT:
                    info.lock_attrs[attr] = "rlock"
                elif spelling in _CONDITION:
                    arg = node.value.args[0] if node.value.args else None
                    aliased = self_attribute(arg) if arg is not None \
                        else None
                    info.lock_attrs[attr] = f"alias:{aliased}" \
                        if aliased is not None else "rlock"
                else:
                    info.attr_types[attr] = spelling

    # -- name resolution -----------------------------------------------
    def resolve_symbol(self, modname: str, dotted: str,
                       depth: int = 0) -> object | None:
        """What ``dotted`` names inside module ``modname``: a
        :class:`ClassInfo`, a :class:`FunctionUnit`, a :class:`Module`
        (for module targets), or ``None``."""
        if not dotted or depth > MAX_RESOLVE_DEPTH:
            return None
        head, _, rest = dotted.partition(".")
        local_classes = self.classes.get(modname, {})
        local_functions = self.functions.get(modname, {})
        if not rest:
            if head in local_classes:
                return local_classes[head]
            if head in local_functions:
                return local_functions[head]
        elif head in local_classes:
            cls = local_classes[head]
            if "." not in rest:
                return cls.methods.get(rest)
            return None
        target = self.imports.get(modname, {}).get(head)
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        return self._resolve_qualified(full, depth + 1)

    def _resolve_qualified(self, full: str,
                           depth: int) -> object | None:
        if depth > MAX_RESOLVE_DEPTH:
            return None
        # Longest known module prefix, then symbol path inside it.
        parts = full.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.modules_by_name:
                continue
            remainder = parts[cut:]
            if not remainder:
                return self.modules_by_name[prefix]
            return self.resolve_symbol(prefix, ".".join(remainder),
                                       depth)
        return None

    def resolve_class(self, modname: str,
                      dotted: str) -> ClassInfo | None:
        """The class ``dotted`` names inside ``modname``, if any."""
        resolved = self.resolve_symbol(modname, dotted)
        return resolved if isinstance(resolved, ClassInfo) else None

    def lookup_method(self, info: ClassInfo,
                      name: str) -> FunctionUnit | None:
        """``info``'s method ``name``, searching resolvable bases."""
        seen: set[str] = set()
        queue = [info]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base_name in current.base_names:
                base = self.resolve_class(
                    module_name(current.module.relpath), base_name)
                if base is not None:
                    queue.append(base)
        return None

    def resolve_call(self, unit: FunctionUnit,
                     call: ast.Call) -> FunctionUnit | None:
        """The :class:`FunctionUnit` a call lands in, or ``None`` when
        the target is outside the model (conservative)."""
        func = call.func
        if isinstance(func, ast.Attribute):
            # self.m(...)
            owner = self_attribute(func.value)
            if isinstance(func.value, ast.Name) \
                    and func.value.id == "self" and unit.cls is not None:
                return self.lookup_method(unit.cls, func.attr)
            # self.attr.m(...) through the learned attribute type.
            if owner is not None and unit.cls is not None:
                spelling = unit.cls.attr_types.get(owner)
                if spelling is not None:
                    target = self.resolve_class(unit.module_name,
                                                spelling)
                    if target is not None:
                        return self.lookup_method(target, func.attr)
                return None
        name = dotted_name(func)
        if name is None:
            return None
        # A sibling/enclosing nested function by bare name.
        if "." not in name:
            scope: FunctionUnit | None = unit
            while scope is not None:
                if name in scope.children:
                    return scope.children[name]
                scope = scope.parent
        resolved = self.resolve_symbol(unit.module_name, name)
        if isinstance(resolved, FunctionUnit):
            return resolved
        if isinstance(resolved, ClassInfo):
            return resolved.methods.get("__init__")
        return None

    # -- the lock model ------------------------------------------------
    def lock_key(self, unit: FunctionUnit,
                 attr: str) -> tuple[LockKey, bool] | None:
        """``(key, reentrant)`` when ``self.<attr>`` is a lock of the
        unit's class (aliases canonicalized)."""
        if unit.cls is None:
            return None
        resolved = unit.cls.resolve_lock(attr)
        if resolved is None:
            return None
        canonical, reentrant = resolved
        return LockKey(unit.cls.qualname, canonical), reentrant

    def lock_model(self) -> LockModel:
        """Build (once) the project-wide lock model."""
        if self._lock_model is None:
            self._lock_model = _build_lock_model(self)
        return self._lock_model


def _direct_acquisitions(project: Project, unit: FunctionUnit,
                         ) -> list[tuple[LockKey, bool, ast.With,
                                         ast.AST]]:
    """Every ``with self.<lock>:`` in the unit body (not in nested
    defs): ``(key, reentrant, with_node, item_expr)``."""
    found = []
    for node in walk_within(unit.node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            attr = self_attribute(item.context_expr)
            if attr is None:
                continue
            resolved = project.lock_key(unit, attr)
            if resolved is not None:
                found.append((resolved[0], resolved[1], node,
                              item.context_expr))
    return found


def _build_summaries(project: Project) -> dict[
        str, dict[LockKey, tuple[str, ...]]]:
    """Fixpoint: unit qualname -> locks it may acquire when called
    (directly or transitively), with one representative call path."""
    summaries: dict[str, dict[LockKey, tuple[str, ...]]] = {}
    reentrancy: dict[LockKey, bool] = {}
    for unit in project.units:
        table: dict[LockKey, tuple[str, ...]] = {}
        for key, reentrant, _node, _expr in _direct_acquisitions(
                project, unit):
            table.setdefault(key, (unit.qualname,))
            reentrancy[key] = reentrant
        summaries[unit.qualname] = table
    calls: dict[str, list[str]] = {}
    for unit in project.units:
        targets = []
        for node in walk_within(unit.node):
            if isinstance(node, ast.Call):
                callee = project.resolve_call(unit, node)
                if callee is not None:
                    targets.append(callee.qualname)
        calls[unit.qualname] = targets
    for _round in range(MAX_SUMMARY_ROUNDS):
        changed = False
        for unit in project.units:
            table = summaries[unit.qualname]
            for callee in calls[unit.qualname]:
                for key, path in summaries.get(callee, {}).items():
                    if key not in table:
                        table[key] = (unit.qualname,) + path
                        changed = True
        if not changed:
            break
    _build_summaries.reentrancy = reentrancy  # type: ignore[attr-defined]
    return summaries


class _HeldLockVisitor(ast.NodeVisitor):
    """Record nesting edges and held-lock re-entries for one unit."""

    def __init__(self, project: Project, unit: FunctionUnit,
                 summaries: dict[str, dict[LockKey, tuple[str, ...]]],
                 reentrancy: dict[LockKey, bool], model: LockModel):
        self._project = project
        self._unit = unit
        self._summaries = summaries
        self._reentrancy = reentrancy
        self._model = model
        self._held: list[LockKey] = []

    # Nested definitions run later, not under the current held set.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]
    visit_ClassDef = visit_FunctionDef  # type: ignore[assignment]

    def _acquire(self, key: LockKey, reentrant: bool,
                 node: ast.AST) -> None:
        self._reentrancy.setdefault(key, reentrant)
        for held in self._held:
            if held == key:
                if not reentrant:
                    self._model.self_deadlocks.append(SelfDeadlock(
                        lock=key, module=self._unit.module, node=node,
                        unit=self._unit, path=(self._unit.qualname,)))
            else:
                self._add_edge(held, key, node,
                               (self._unit.qualname,))

    def _add_edge(self, held: LockKey, acquired: LockKey,
                  node: ast.AST, path: tuple[str, ...]) -> None:
        self._model.edges.setdefault((held, acquired), []).append(
            LockWitness(held=held, acquired=acquired,
                        module=self._unit.module, node=node, path=path))

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired_here: list[LockKey] = []
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
            attr = self_attribute(item.context_expr)
            resolved = self._project.lock_key(self._unit, attr) \
                if attr is not None else None
            if resolved is not None:
                key, reentrant = resolved
                self._acquire(key, reentrant, node)
                self._held.append(key)
                acquired_here.append(key)
        for statement in node.body:
            self.visit(statement)
        for _key in acquired_here:
            self._held.pop()

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def visit_Call(self, node: ast.Call) -> None:
        if self._held:
            callee = self._project.resolve_call(self._unit, node)
            if callee is not None:
                summary = self._summaries.get(callee.qualname, {})
                for key, path in summary.items():
                    full_path = (self._unit.qualname,) + path
                    for held in self._held:
                        if held == key:
                            if not self._reentrancy.get(key, True):
                                self._model.self_deadlocks.append(
                                    SelfDeadlock(
                                        lock=key,
                                        module=self._unit.module,
                                        node=node, unit=self._unit,
                                        path=full_path))
                        else:
                            self._add_edge(held, key, node, full_path)
        self.generic_visit(node)


def _build_lock_model(project: Project) -> LockModel:
    model = LockModel()
    summaries = _build_summaries(project)
    reentrancy: dict[LockKey, bool] = getattr(
        _build_summaries, "reentrancy", {})
    model.reentrant = reentrancy
    for unit in project.units:
        visitor = _HeldLockVisitor(project, unit, summaries,
                                   reentrancy, model)
        for statement in unit.node.body:
            visitor.visit(statement)
    return model


#: One-slot memo: building the model twice per run (LOCK-DISCIPLINE and
#: LOCK-ORDER share it) would only waste time.  Keyed
#: on the identity of the modules list the runner passes around.
_PROJECT_MEMO: dict[str, tuple[tuple[int, ...], Project]] = {}


def project_model(modules: Sequence[Module]) -> Project:
    """The (memoized) :class:`Project` for one lint run's modules."""
    key = tuple(id(module) for module in modules)
    cached = _PROJECT_MEMO.get("project")
    if cached is not None and cached[0] == key:
        return cached[1]
    project = Project(modules)
    _PROJECT_MEMO["project"] = (key, project)
    return project
