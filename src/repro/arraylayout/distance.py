"""Concrete (layout-resolved) address distances.

With a concrete :class:`~repro.ir.layout.MemoryLayout`, the address of
``A[c*i + d]`` is ``base_A + c*i + d`` (word-addressed), so the distance
between two accesses is loop-invariant exactly when their coefficients
agree -- *regardless of the arrays involved*.  These helpers mirror
:mod:`repro.graph.distance` with the layout plugged in: code generation
derives its deltas from them, and the tests hold
:func:`~repro.merging.cost.cover_cost`'s ``layout`` pricing to them.
"""

from __future__ import annotations

from repro.ir.layout import MemoryLayout
from repro.ir.types import ArrayAccess


def concrete_intra_distance(source: ArrayAccess, target: ArrayAccess,
                            layout: MemoryLayout) -> int | None:
    """Layout-resolved distance ``target - source`` within an iteration.

    Constant iff the index coefficients agree; the arrays may differ.
    """
    if source.coefficient != target.coefficient:
        return None
    return (layout.base(target.array) + target.offset) \
        - (layout.base(source.array) + source.offset)


def concrete_wrap_distance(last: ArrayAccess, first: ArrayAccess,
                           step: int, layout: MemoryLayout) -> int | None:
    """Layout-resolved distance from ``last`` (iteration ``t``) to
    ``first`` (iteration ``t + 1``)."""
    if last.coefficient != first.coefficient:
        return None
    return (layout.base(first.array) + first.coefficient * step
            + first.offset) - (layout.base(last.array) + last.offset)
