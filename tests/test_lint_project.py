"""The inter-procedural engine under the project rules, unit-tested.

``tools/lint/project.py`` (name resolution, the class/method index,
call resolution, the lock model) and the :mod:`lint.asthelpers`
edge cases the rules lean on get direct coverage here -- the
rule-level fixtures in ``test_lint.py`` prove the diagnostics fire,
these tests pin the model they fire *from*.  The generated
``docs/PROTOCOL.md`` freshness gate is exercised last, the same way
CI runs it.
"""

from __future__ import annotations

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from lint import suppressions  # noqa: E402
from lint.asthelpers import (  # noqa: E402
    call_name,
    constant_str,
    dotted_name,
    exception_names,
    has_bare_reraise,
    has_raise,
    keyword_names,
    self_attribute,
    walk_functions,
)
from lint.project import (  # noqa: E402
    ClassInfo,
    FunctionUnit,
    Project,
    module_name,
    walk_within,
)
from lint.registry import Module  # noqa: E402


def make_project(sources: dict[str, str]) -> Project:
    """A :class:`Project` over in-memory modules (no memo, no disk)."""
    modules = []
    for relpath, source in sources.items():
        source = textwrap.dedent(source)
        modules.append(Module(
            path=Path(relpath), relpath=relpath, source=source,
            tree=ast.parse(source),
            suppressions=suppressions.collect(source)))
    return Project(modules)


def unit_call(project: Project, unit: FunctionUnit,
              ) -> FunctionUnit | None:
    """Resolve the first call expression inside ``unit``."""
    for node in walk_within(unit.node):
        if isinstance(node, ast.Call):
            return project.resolve_call(unit, node)
    return None


# ----------------------------------------------------------------------
# Module naming and imports
# ----------------------------------------------------------------------
class TestNameResolution:
    def test_module_names_strip_import_roots(self):
        assert module_name("src/repro/batch/service.py") == \
            "repro.batch.service"
        assert module_name("tools/lint/project.py") == "lint.project"
        assert module_name("src/repro/batch/__init__.py") == \
            "repro.batch"
        assert module_name("benchmarks/run.py") == "benchmarks.run"

    def test_from_import_resolves_to_defining_class(self):
        project = make_project({
            "src/proj/core.py": """
                class Engine:
                    def run(self):
                        pass
                """,
            "src/app.py": "from proj.core import Engine\n",
        })
        resolved = project.resolve_symbol("app", "Engine")
        assert isinstance(resolved, ClassInfo)
        assert resolved.qualname == "proj.core.Engine"

    def test_reexport_through_package_init_is_followed(self):
        project = make_project({
            "src/pkg/__init__.py": "from pkg.core import Engine\n",
            "src/pkg/core.py": """
                class Engine:
                    def run(self):
                        pass
                """,
            "src/app.py": "from pkg import Engine\n",
        })
        resolved = project.resolve_symbol("app", "Engine")
        assert isinstance(resolved, ClassInfo)
        assert resolved.qualname == "pkg.core.Engine"

    def test_relative_import_resolves_inside_the_package(self):
        project = make_project({
            "src/pkg/__init__.py": "",
            "src/pkg/core.py": """
                class Engine:
                    def run(self):
                        pass
                """,
            "src/pkg/front.py": "from .core import Engine\n",
        })
        resolved = project.resolve_symbol("pkg.front", "Engine")
        assert isinstance(resolved, ClassInfo)
        assert resolved.qualname == "pkg.core.Engine"

    def test_unknown_names_resolve_to_none(self):
        project = make_project({
            "src/app.py": "import os\nfrom missing import thing\n",
        })
        assert project.resolve_symbol("app", "thing") is None
        assert project.resolve_symbol("app", "os.path.join") is None


# ----------------------------------------------------------------------
# Call resolution
# ----------------------------------------------------------------------
class TestCallResolution:
    def test_attribute_chained_call_through_learned_attr_type(self):
        project = make_project({
            "src/proj/store.py": """
                class Store:
                    def save(self):
                        pass
                """,
            "src/proj/engine.py": """
                from proj.store import Store
                class Engine:
                    def __init__(self):
                        self._store = Store()
                    def flush(self):
                        self._store.save()
                """,
        })
        engine = project.classes_by_qualname["proj.engine.Engine"]
        callee = unit_call(project, engine.methods["flush"])
        assert callee is not None
        assert callee.qualname == "proj.store.Store.save"

    def test_self_call_resolves_through_base_classes(self):
        project = make_project({
            "src/proj/base.py": """
                class Base:
                    def step(self):
                        pass
                """,
            "src/proj/derived.py": """
                from proj.base import Base
                class Derived(Base):
                    def run(self):
                        self.step()
                """,
        })
        derived = project.classes_by_qualname["proj.derived.Derived"]
        callee = unit_call(project, derived.methods["run"])
        assert callee is not None
        assert callee.qualname == "proj.base.Base.step"

    def test_nested_closure_is_a_unit_bound_to_the_class(self):
        project = make_project({
            "src/proj/serve.py": """
                class Server:
                    def tick(self):
                        pass
                    def serve(self):
                        def worker():
                            self.tick()
                        worker()
                """,
        })
        server = project.classes_by_qualname["proj.serve.Server"]
        serve = server.methods["serve"]
        worker = serve.children["worker"]
        assert worker.qualname == \
            "proj.serve.Server.serve.<locals>.worker"
        assert worker.cls is server
        # The bare-name call in serve() lands in the closure...
        assert unit_call(project, serve) is worker
        # ...and the closure's self.tick() resolves through the class.
        callee = unit_call(project, worker)
        assert callee is server.methods["tick"]

    def test_async_methods_are_indexed_like_sync_ones(self):
        project = make_project({
            "src/proj/pump.py": """
                class Pump:
                    async def drain(self):
                        pass
                    async def cycle(self):
                        await self.drain()
                async def main():
                    pass
                """,
        })
        pump = project.classes_by_qualname["proj.pump.Pump"]
        assert set(pump.methods) == {"drain", "cycle"}
        assert "main" in project.functions["proj.pump"]
        callee = unit_call(project, pump.methods["cycle"])
        assert callee is pump.methods["drain"]

    def test_constructor_call_resolves_to_init(self):
        project = make_project({
            "src/proj/core.py": """
                class Engine:
                    def __init__(self):
                        pass
                def build():
                    return Engine()
                """,
        })
        build = project.functions["proj.core"]["build"]
        callee = unit_call(project, build)
        assert callee is not None
        assert callee.qualname == "proj.core.Engine.__init__"


# ----------------------------------------------------------------------
# The lock model
# ----------------------------------------------------------------------
class TestLockModel:
    def test_condition_alias_canonicalizes_to_wrapped_lock(self):
        project = make_project({
            "src/proj/server.py": """
                import threading
                class Server:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._cond = threading.Condition(self._lock)
                """,
        })
        server = project.classes_by_qualname["proj.server.Server"]
        assert server.resolve_lock("_cond") == ("_lock", False)
        assert server.resolve_lock("_lock") == ("_lock", False)
        assert server.resolve_lock("_other") is None

    def test_bare_condition_is_reentrant(self):
        project = make_project({
            "src/proj/server.py": """
                import threading
                class Server:
                    def __init__(self):
                        self._cond = threading.Condition()
                """,
        })
        server = project.classes_by_qualname["proj.server.Server"]
        assert server.resolve_lock("_cond") == ("_cond", True)

    def test_alias_reentry_is_a_self_deadlock(self):
        project = make_project({
            "src/proj/server.py": """
                import threading
                class Server:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._cond = threading.Condition(self._lock)
                    def wake(self):
                        with self._cond:
                            pass
                    def outer(self):
                        with self._lock:
                            self.wake()
                """,
        })
        model = project.lock_model()
        assert len(model.self_deadlocks) == 1
        dead = model.self_deadlocks[0]
        assert dead.lock.attr == "_lock"
        assert dead.unit.label == "Server.outer"

    def test_transitive_edges_carry_the_call_path(self):
        project = make_project({
            "src/proj/server.py": """
                import threading
                class Server:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()
                    def inner(self):
                        with self._b:
                            pass
                    def relay(self):
                        self.inner()
                    def outer(self):
                        with self._a:
                            self.relay()
                """,
        })
        model = project.lock_model()
        [(edge, witnesses)] = list(model.edges.items())
        held, acquired = edge
        assert held.attr == "_a" and acquired.attr == "_b"
        assert witnesses[0].path == (
            "proj.server.Server.outer", "proj.server.Server.relay",
            "proj.server.Server.inner")
        assert "while holding" in witnesses[0].describe()


# ----------------------------------------------------------------------
# asthelpers edge cases
# ----------------------------------------------------------------------
class TestAstHelpers:
    def test_dotted_name_handles_chains_and_rejects_calls(self):
        assert dotted_name(ast.parse("a.b.c", mode="eval").body) == \
            "a.b.c"
        assert dotted_name(ast.parse("a", mode="eval").body) == "a"
        # A subscript or call in the chain breaks the spelling.
        assert dotted_name(ast.parse("a[0].b", mode="eval").body) is None
        assert dotted_name(ast.parse("f().b", mode="eval").body) is None

    def test_call_name_on_attribute_chained_calls(self):
        call = ast.parse("self.cache.get(key)", mode="eval").body
        assert call_name(call) == "self.cache.get"
        curried = ast.parse("factory()(key)", mode="eval").body
        assert call_name(curried) is None

    def test_self_attribute_requires_exactly_self_dot_attr(self):
        assert self_attribute(
            ast.parse("self.lock", mode="eval").body) == "lock"
        assert self_attribute(
            ast.parse("other.lock", mode="eval").body) is None
        assert self_attribute(
            ast.parse("self.a.b", mode="eval").body) is None

    def test_keyword_names_marks_double_star_splats(self):
        call = ast.parse("f(a=1, **rest)", mode="eval").body
        assert keyword_names(call) == {"a", "**"}

    def test_constant_str_only_accepts_string_literals(self):
        assert constant_str(
            ast.parse("'op'", mode="eval").body) == "op"
        assert constant_str(ast.parse("42", mode="eval").body) is None
        assert constant_str(None) is None

    def test_walk_functions_includes_async_and_nested_defs(self):
        tree = ast.parse(
            "async def top():\n"
            "    def inner():\n"
            "        pass\n"
            "fn = lambda: (lambda: 1)()\n")
        names = [node.name for node in walk_functions(tree)]
        assert names == ["top", "inner"]

    def test_walk_within_does_not_descend_into_nested_scopes(self):
        tree = ast.parse(
            "def outer():\n"
            "    a = 1\n"
            "    def inner():\n"
            "        b = 2\n"
            "    c = (lambda: 3)()\n")
        outer = tree.body[0]
        names = {node.id for node in walk_within(outer)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)}
        assert names == {"a", "c"}

    def test_raise_classification_in_handlers(self):
        handler = ast.parse(
            "try:\n    x()\nexcept (OSError, ValueError) as error:\n"
            "    raise RuntimeError('wrapped') from error\n"
        ).body[0].handlers[0]
        assert exception_names(handler) == {"OSError", "ValueError"}
        assert has_raise(handler)
        assert not has_bare_reraise(handler)
        bare = ast.parse(
            "try:\n    x()\nexcept BaseException:\n    raise\n"
        ).body[0].handlers[0]
        assert exception_names(bare) == {"BaseException"}
        assert has_bare_reraise(bare)


# ----------------------------------------------------------------------
# The generated protocol reference
# ----------------------------------------------------------------------
class TestProtocolDoc:
    def test_committed_document_is_fresh(self):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_protocol.py"),
             "--check"],
            capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, (
            completed.stderr or completed.stdout)

    def test_document_covers_the_live_protocol(self):
        text = (ROOT / "docs" / "PROTOCOL.md").read_text(
            encoding="utf-8")
        assert "GENERATED FILE" in text
        for op in ("ping", "compile", "stats"):
            assert f'`op: "{op}"`' in text
        for gone in ("lease", "submit", "Event frames", '`op: "get"`',
                     '`op: "get_many"`', '`op: "put"`', "CacheServer"):
            assert gone not in text
