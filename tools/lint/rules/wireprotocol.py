"""WIRE-PROTOCOL: clients send only declared ops and fields.

Contract: the compile service declares its wire schema -- the op
table ``CompileService.OPS`` -- and validates each request against it
at runtime.  This rule holds the sending side to the same table
statically: every ``{"op": ...}`` dict literal must name a declared op
and carry only the fields the table declares for it.  A misspelt op or field then fails CI instead of the
one request path the tests did not exercise.

The rule imports the table from ``src/`` (the same one
``tools/gen_protocol.py`` renders as ``docs/PROTOCOL.md``).  Literals
whose op is computed, or that spread ``**`` another dict, are skipped.
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
def declared_fields() -> dict[str, set[str]]:
    """Op name -> allowed fields, from ``CompileService``'s op table."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.batch.serving import CompileService

    return {name: {"op", *op.required, *op.optional}
            for name, op in CompileService.OPS.items()}


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
    """Check op literals against the declared table."""

    rule_id = "WIRE-PROTOCOL"
    description = ("`{\"op\": ...}` literals must name a declared op "
                   "and carry only its declared fields")
    rationale = ("the service enforces its op table at runtime; a "
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
            value = keys.get("op")
            if not (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                continue
            name = value.value
            if name not in declared:
                yield self.diagnostic(
                    module, node,
                    f"op {name!r} is not declared by the op table "
                    f"(declared: {', '.join(sorted(declared))})")
                continue
            for extra in sorted(set(keys) - declared[name]):
                yield self.diagnostic(
                    module, node,
                    f"op {name!r} does not declare field {extra!r} "
                    f"(declared: {', '.join(sorted(declared[name]))})")
