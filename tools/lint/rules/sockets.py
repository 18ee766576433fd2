"""SOCKET-HYGIENE: sockets must not leak on exception paths.

Contract: the service layer (the compile service and its pooled
client) holds long-lived TCP connections; a socket closed only on the
straight-line path leaks its file descriptor whenever an exception
interrupts the function, and a long-running server leaks them by the
thousand.  A locally created socket must therefore be (one of):

* opened as a context manager (``with ... as sock:``),
* closed inside a ``finally:`` or ``except:`` block
  (``sock.close()`` / ``sock.shutdown()`` / ``_close_socket(sock)``),
* or handed off -- returned, or stored on an object attribute --
  making a longer-lived owner responsible.

The check is intraprocedural and conservative: only direct
``socket.socket(...)`` / ``socket.create_connection(...)``
assignments to plain local names are tracked.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from lint.asthelpers import call_name, walk_functions
from lint.diagnostics import Diagnostic
from lint.registry import Module, Rule, register

#: Call spellings that create a socket this rule tracks.
_CREATORS = {"socket.socket", "socket.create_connection",
             "create_connection"}

#: Call spellings that count as closing a socket by name.
_CLOSE_HELPERS = {"_close_socket", "service._close_socket"}


def _is_creation(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in _CREATORS


def _closes_name(node: ast.AST, name: str) -> bool:
    """Whether ``node`` contains ``name.close()``/``name.shutdown()``
    or ``_close_socket(name)``."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Attribute) \
                and func.attr in ("close", "shutdown") \
                and isinstance(func.value, ast.Name) \
                and func.value.id == name:
            return True
        if call_name(child) in _CLOSE_HELPERS and any(
                isinstance(arg, ast.Name) and arg.id == name
                for arg in child.args):
            return True
    return False


def _escapes(function: ast.AST, name: str) -> bool:
    """Whether ``name`` is handed off to a longer-lived owner."""
    for node in ast.walk(function):
        if isinstance(node, ast.Return) and node.value is not None:
            for child in ast.walk(node.value):
                if isinstance(child, ast.Name) and child.id == name:
                    return True
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    for child in ast.walk(node.value):
                        if isinstance(child, ast.Name) \
                                and child.id == name:
                            return True
    return False


def _closed_on_teardown(function: ast.AST, name: str) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Try):
            for final in node.finalbody:
                if _closes_name(final, name):
                    return True
            for handler in node.handlers:
                if _closes_name(handler, name):
                    return True
    return False


@register
class SocketHygieneRule(Rule):
    """Flag locally created sockets with no exception-safe teardown."""

    rule_id = "SOCKET-HYGIENE"
    description = ("locally created sockets must be closed via context "
                   "manager, finally/except, or handed off to an owner")
    rationale = ("service-layer connections leak file descriptors on "
                 "every exception path otherwise; long-running servers "
                 "leak them by the thousand")

    def check_module(self, module: Module) -> Iterable[Diagnostic]:
        for function in walk_functions(module.tree):
            yield from self._check_function(module, function)

    def _check_function(self, module: Module,
                        function: ast.AST) -> Iterator[Diagnostic]:
        # Context-managed creations (`with ... as sock:`) are withitem
        # expressions, not Assigns, so they are never candidates here.
        for node in ast.walk(function):
            if not isinstance(node, ast.Assign) \
                    or not _is_creation(node.value):
                continue
            if len(node.targets) != 1 \
                    or not isinstance(node.targets[0], ast.Name):
                continue
            name = node.targets[0].id
            if _escapes(function, name) \
                    or _closed_on_teardown(function, name):
                continue
            yield self.diagnostic(
                module, node,
                f"socket {name!r} has no exception-safe close: use a "
                f"with-statement, close it in finally/except, or hand "
                f"it off to an owning object")
