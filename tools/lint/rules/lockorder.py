"""LOCK-ORDER: a global lock-acquisition order, or a deadlock someday.

Contract: the batch layer's threaded objects (``CompileService``,
``TieredCache``, ``ServeClient``) each own locks, and handler threads
routinely call across objects while holding one.  Two threads
acquiring the same pair of locks in opposite orders is the classic
deadlock -- and the overlap only exists in the
*composition* of methods, so no per-module rule can see it.

This rule builds the project-wide lock graph from the
:class:`~lint.project.Project` model: a node per lock attribute (per
owning class), and an edge ``A -> B`` whenever some code path acquires
``B`` -- directly via ``with self.<b>:``, or anywhere inside a method
called while ``A`` is held (call chains are followed through the
resolved call graph to a fixpoint).  Any cycle in that graph is a
potential deadlock: two threads walking the cycle from different entry
points can block each other forever.  The diagnostic names the full
cycle and one concrete witness path per edge (file, line, and the
call chain from the holding method to the acquisition), so the fix --
picking one global order -- starts from evidence, not a search.

Conservatism: unresolvable calls (dynamic dispatch, attributes whose
class is unknown) contribute no edges, so the rule under-approximates.
An acquisition order that never overlaps at runtime can still trip
the rule -- suppress with a comment explaining why the cycle is
unreachable, which is exactly the invariant worth writing down.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from lint.diagnostics import Diagnostic
from lint.project import project_model
from lint.registry import Module, ProjectRule, register


def _short(qualname: str) -> str:
    """``Class.method`` (or ``function``) from a full qualname."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


@register
class LockOrderRule(ProjectRule):
    """Flag cycles in the project-wide lock-acquisition-order graph."""

    rule_id = "LOCK-ORDER"
    description = ("lock acquisitions must follow one global order: "
                   "a cycle of `with self.<lock>:` contexts (direct "
                   "or through called methods) is a potential "
                   "deadlock")
    rationale = ("handler threads, the dispatcher, and batch callers "
                 "cross object boundaries while holding locks; "
                 "inconsistent pairwise order deadlocks a server "
                 "under load, which no single-module check can see")

    def check_project(self,
                      modules: Sequence[Module]) -> Iterable[Diagnostic]:
        model = project_model(modules).lock_model()
        for cycle in model.cycles():
            witnesses = [model.edges[edge][0] for edge in cycle]
            order = " -> ".join(edge[0].label for edge in cycle)
            order += f" -> {cycle[0][0].label}"
            evidence = "; ".join(
                witness.describe() for witness in witnesses)
            anchor = witnesses[0]
            yield self.diagnostic(
                anchor.module, anchor.node,
                f"lock-order cycle {order}: two threads taking these "
                f"locks from different entry points can deadlock "
                f"(witnesses: {evidence}); pick one global "
                f"acquisition order or justify a suppression")
