"""WIRE-PROTOCOL: clients send only declared ops and fields.

Contract: every server of the batch layer declares its wire schema --
the op tables (``OPS``, and the job server's ``STREAM_OPS``) of the
:class:`~repro.batch.service.FrameServer` subclasses, plus the job
server's result-stream ``EVENTS`` -- and validates each request
against its table at runtime.  This rule holds the sending side to the
same tables statically: every ``{"op": ...}`` dict literal must name a
declared op and carry only fields some table declares for it, and
every ``{"event": ...}`` literal must name a declared event kind and
carry only its fields.  A misspelt op or field then fails CI instead
of the one request path the tests did not exercise.

The rule imports the tables from ``src/`` (the same ones
``tools/gen_protocol.py`` renders as ``docs/PROTOCOL.md``).  Literals
whose op or kind is computed, or that spread ``**`` another dict, are
skipped.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path
from typing import Iterable

from lint.diagnostics import Diagnostic
from lint.registry import Module, Rule, register

SRC = Path(__file__).resolve().parents[3] / "src"


@functools.lru_cache(maxsize=1)
def declared_fields() -> dict[str, dict[str, set[str]]]:
    """Routing key -> name -> allowed fields: ``op`` over every
    server's op tables, ``event`` over ``EVENTS``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.batch.cluster import EVENTS, JobServer
    from repro.batch.service import CacheServer
    from repro.batch.serving import CompileService

    ops: dict[str, set[str]] = {}
    for table in (CacheServer.OPS, JobServer.OPS, JobServer.STREAM_OPS,
                  CompileService.OPS):
        for name, op in table.items():
            ops.setdefault(name, {"op"}).update(op.required, op.optional)
    events = {kind: {"event", *fields} for kind, fields in EVENTS.items()}
    return {"op": ops, "event": events}


def _constant_keys(node: ast.Dict) -> dict[str, ast.expr] | None:
    """A dict literal's string keys -> values; ``None`` when a key is
    computed or a ``**`` spread."""
    keys: dict[str, ast.expr] = {}
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            return None
        keys[key.value] = value
    return keys


@register
class WireProtocolRule(Rule):
    """Check op and event literals against the declared tables."""

    rule_id = "WIRE-PROTOCOL"
    description = ("`{\"op\": ...}` / `{\"event\": ...}` literals must "
                   "name a declared op or event kind and carry only its "
                   "declared fields")
    rationale = ("the servers enforce their op tables at runtime; a "
                 "misspelt op or field fails exactly the request path "
                 "the tests did not exercise")

    def check_module(self, module: Module) -> Iterable[Diagnostic]:
        declared = declared_fields()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Dict):
                continue
            keys = _constant_keys(node)
            if keys is None:
                continue
            for route, table in declared.items():
                value = keys.get(route)
                if not (isinstance(value, ast.Constant)
                        and isinstance(value.value, str)):
                    continue
                name = value.value
                if name not in table:
                    yield self.diagnostic(
                        module, node,
                        f"{route} {name!r} is not declared by any server "
                        f"table (declared: {', '.join(sorted(table))})")
                    continue
                for extra in sorted(set(keys) - table[name]):
                    yield self.diagnostic(
                        module, node,
                        f"{route} {name!r} does not declare field "
                        f"{extra!r} (declared: "
                        f"{', '.join(sorted(table[name]))})")
