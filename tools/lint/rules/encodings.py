"""IO-ENCODING: every text-mode file access must pin its encoding.

Contract: results, caches, traces, and reports round-trip through
JSON/text files across machines and hosts (the CacheBackend and Result
contracts of ``docs/ARCHITECTURE.md``).  A text read or write without
``encoding=`` uses the *locale* encoding, which differs between the
dev box, CI, and other hosts -- the exact class of bug that breaks
bit-identical reproduction.  Flagged: ``open()`` / ``Path.open()`` in
text mode, ``read_text()`` / ``write_text()``, and text-mode
``tempfile`` constructors, whenever no ``encoding=`` is passed.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from lint.asthelpers import constant_str, keyword_names
from lint.diagnostics import Diagnostic
from lint.registry import Module, Rule, register

#: ``tempfile`` constructors that accept a mode and an encoding.
_TEMPFILE_FACTORIES = {"NamedTemporaryFile", "TemporaryFile",
                       "SpooledTemporaryFile"}


def _mode_argument(call: ast.Call, position: int) -> ast.AST | None:
    if len(call.args) > position:
        return call.args[position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_binary_mode(mode: ast.AST | None) -> bool | None:
    """True/False for a literal mode; ``None`` when undecidable."""
    if mode is None:
        return False  # default mode "r" is text
    literal = constant_str(mode)
    if literal is None:
        return None
    return "b" in literal


@register
class ExplicitEncodingRule(Rule):
    """Flag text-mode file I/O that does not pass ``encoding=``."""

    rule_id = "IO-ENCODING"
    description = ("text-mode open()/read_text()/write_text()/tempfile "
                   "calls must pass encoding=")
    rationale = ("locale-dependent encodings break bit-identical "
                 "results across dev, CI, and worker hosts "
                 "(CacheBackend/Result contracts)")

    def check_module(self, module: Module) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: Module,
                    call: ast.Call) -> Iterator[Diagnostic]:
        kwargs = keyword_names(call)
        if "encoding" in kwargs or "**" in kwargs:
            return
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode_pos = 1
            spelled = "open()"
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # Path.open shares open()'s signature; other .open()
            # callables (tarfile, gzip, webbrowser...) do not exist in
            # this codebase, and a false positive here is one
            # suppression comment away.
            mode_pos = 0
            spelled = ".open()"
        elif isinstance(func, ast.Attribute) \
                and func.attr in ("read_text", "write_text"):
            # encoding is the 1st/2nd positional parameter.
            position = 0 if func.attr == "read_text" else 1
            if len(call.args) > position:
                return
            yield self.diagnostic(
                module, call,
                f".{func.attr}() without encoding= uses the locale "
                f"encoding; pass encoding=\"utf-8\"")
            return
        elif (isinstance(func, ast.Attribute)
              and func.attr in _TEMPFILE_FACTORIES) \
                or (isinstance(func, ast.Name)
                    and func.id in _TEMPFILE_FACTORIES):
            mode = _mode_argument(call, 0)
            literal = constant_str(mode)
            # Default mode "w+b" is binary; only a literal text mode
            # is provably wrong.
            if literal is None or "b" in literal:
                return
            yield self.diagnostic(
                module, call,
                f"text-mode tempfile (mode {literal!r}) without "
                f"encoding= uses the locale encoding; pass "
                f"encoding=\"utf-8\"")
            return
        else:
            return
        binary = _is_binary_mode(_mode_argument(call, mode_pos))
        if binary is True:
            return
        qualifier = "" if binary is False \
            else " (mode is not a literal, assuming text)"
        yield self.diagnostic(
            module, call,
            f"{spelled} in text mode without encoding= uses the "
            f"locale encoding{qualifier}; pass encoding=\"utf-8\"")
