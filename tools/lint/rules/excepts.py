"""BROAD-EXCEPT: no silently swallowed exceptions in the batch layer.

Contract: the Executor contract promises that a failing job aborts the
batch with a job-attributed :class:`BatchError` and that interrupts
propagate.  A bare ``except:`` (which also catches
``KeyboardInterrupt`` and ``SystemExit``) or a swallowed
``except BaseException`` breaks both everywhere; a swallowed
``except Exception`` additionally eats :class:`BatchError`'s failure
attribution, so inside the engine and service modules it is
flagged too.  A handler that propagates -- a bare ``raise``, or the
catch-wrap-rethrow idiom ``raise JobFailure(i, e) from e`` -- is fine
for ``Exception``; only a *bare* re-raise clears ``BaseException``,
because wrapping ``KeyboardInterrupt`` hides it just as surely as
swallowing it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from lint.asthelpers import exception_names, has_bare_reraise, has_raise
from lint.diagnostics import Diagnostic
from lint.registry import Module, Rule, register

#: Modules where even ``except Exception`` must not swallow: the
#: engine failure contract lives here.
ENGINE_PATHS = (
    "src/repro/batch/engine.py",
    "src/repro/batch/service.py",
    "src/repro/batch/serving.py",
)

#: Spellings of the interrupt-swallowing catch-alls.
_BASE_NAMES = {"BaseException"}
_BROAD_NAMES = {"Exception"}


@register
class BroadExceptRule(Rule):
    """Flag bare/over-broad except handlers that swallow exceptions."""

    rule_id = "BROAD-EXCEPT"
    description = ("no bare except; no swallowed BaseException; no "
                   "swallowed Exception in engine/service modules")
    rationale = ("the Executor failure contract requires job-"
                 "attributed BatchErrors and propagating interrupts; "
                 "swallowed broad catches hide both")

    def check_module(self, module: Module) -> Iterable[Diagnostic]:
        strict = module.relpath in ENGINE_PATHS
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.diagnostic(
                    module, node,
                    "bare except: catches KeyboardInterrupt and "
                    "SystemExit; catch Exception (or narrower) "
                    "instead")
                continue
            caught = exception_names(node)
            if caught & _BASE_NAMES:
                # Only a *bare* re-raise keeps interrupts intact:
                # wrapping KeyboardInterrupt in an Exception subclass
                # hides it just as surely as swallowing it.
                if has_bare_reraise(node):
                    continue
                yield self.diagnostic(
                    module, node,
                    "except BaseException without re-raise swallows "
                    "KeyboardInterrupt/SystemExit; re-raise or catch "
                    "Exception")
            elif strict and caught & _BROAD_NAMES \
                    and not has_raise(node):
                yield self.diagnostic(
                    module, node,
                    "except Exception without re-raise in engine/"
                    "service code swallows BatchError and its "
                    "job attribution; narrow the catch, re-raise, or "
                    "justify a suppression")
