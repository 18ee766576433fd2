"""Path costs ``C(P)`` and the cost model of the paper.

Section 3.2 defines the cost of a path ``P = (a_i1, ..., a_in)`` as the
number of consecutive pairs whose address distance exceeds the modify
range ``M`` -- the number of unit-cost address computations the register
serving ``P`` needs per loop iteration.

Two variants are provided:

* :attr:`CostModel.INTRA` -- the literal formula above: only pairs
  within the iteration count.
* :attr:`CostModel.STEADY_STATE` -- additionally counts the wrap-around
  transition (from the path's last access back to its first access of
  the next iteration) when it is not free.  This is what phase 1's
  zero-cost definition uses and what generated code actually pays per
  iteration in a steady-state loop, so it is the library default.

Transitions whose distance is not a compile-time constant (different
arrays, different index coefficients) always cost one unit.

Every cost here runs on one kernel, :func:`cost_kernel`.  It encodes
the pattern once, in O(N), and then costs any sorted position sequence
with one loop over integers instead of re-deriving each transition from
the :mod:`repro.graph.distance` definitions.  Per position it stores:

* the *group*: ``(array, coefficient)``, the access's
  :attr:`~repro.ir.types.ArrayAccess.group_key`.  The pattern indexes
  with one loop variable, so two accesses have a constant
  :func:`~repro.graph.distance.intra_distance` or
  :func:`~repro.graph.distance.wrap_distance` exactly when their groups
  agree.  The intra distance is then their offset difference, the wrap
  distance ``coefficient * step + offset_first - offset_last``;
* the offset, and ``coefficient * step``.

Under a concrete :class:`~repro.ir.layout.MemoryLayout` the group is
the coefficient alone and each offset is shifted by its array's base:
cross-array distances become constants, exactly the
:func:`~repro.arraylayout.distance.concrete_intra_distance` and
:func:`~repro.arraylayout.distance.concrete_wrap_distance` definitions.

A transition then costs 1 when the groups differ, and otherwise when
its distance ``d`` has ``|d| > M`` and ``d`` is not in ``free_deltas``
-- :func:`~repro.graph.distance.transition_cost`'s rule.  Building the
kernel validates ``M >= 0``, so every entry point rejects a negative
modify range, even on paths with no transition to cost.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Callable, Iterable, Sequence

from repro.errors import GraphError, PathCoverError
from repro.ir.layout import MemoryLayout
from repro.ir.types import AccessPattern
from repro.pathcover.paths import Path, PathCover


@unique
class CostModel(Enum):
    """Which transitions of a path are charged."""

    #: Only intra-iteration consecutive pairs (the paper's literal C(P)).
    INTRA = "intra"
    #: Intra pairs plus the inter-iteration wrap-around transition.
    STEADY_STATE = "steady_state"


def cost_kernel(pattern: AccessPattern, modify_range: int,
                model: CostModel = CostModel.STEADY_STATE,
                free_deltas: frozenset[int] = frozenset(), *,
                layout: MemoryLayout | None = None,
                ) -> Callable[[Sequence[int]], int]:
    """The cost function ``C`` over one pattern's positions.

    The returned function takes a strictly increasing, non-empty
    sequence of positions (a path's indices, or the sorted union of two
    paths' indices) and returns its cost under ``model``.  ``layout``
    prices the distances between the arrays' concrete addresses instead
    of the symbolic ones.  Raises :class:`~repro.errors.GraphError` for
    a negative ``modify_range`` and
    :class:`~repro.errors.LayoutError` for an array ``layout`` does not
    place.
    """
    if modify_range < 0:
        raise GraphError(f"modify range must be >= 0, got {modify_range}")
    ids: dict[object, int] = {}
    group: list[int] = []
    offset: list[int] = []
    stride: list[int] = []
    step = pattern.step
    for access in pattern.accesses:
        index = access.index
        coefficient = index.coefficient
        if layout is None:
            key: object = (access.array, coefficient)
            base = 0
        else:
            key = coefficient
            base = layout.base(access.array)
        group.append(ids.setdefault(key, len(ids)))
        offset.append(base + index.offset)
        stride.append(coefficient * step)
    n_accesses = len(pattern)
    steady = model is CostModel.STEADY_STATE

    def cost(indices: Sequence[int]) -> int:
        first, last = indices[0], indices[-1]
        if last >= n_accesses:
            raise PathCoverError(
                f"path position {last} out of range for pattern of "
                f"length {n_accesses}")
        total = 0
        previous = first
        for position in indices[1:]:
            if group[previous] != group[position]:
                total += 1
            else:
                distance = offset[position] - offset[previous]
                if (distance > modify_range or distance < -modify_range) \
                        and distance not in free_deltas:
                    total += 1
            previous = position
        if steady:
            if group[last] != group[first]:
                total += 1
            else:
                distance = stride[first] + offset[first] - offset[last]
                if (distance > modify_range or distance < -modify_range) \
                        and distance not in free_deltas:
                    total += 1
        return total

    return cost


def path_cost(path: Path, pattern: AccessPattern, modify_range: int,
              model: CostModel = CostModel.STEADY_STATE,
              free_deltas: frozenset[int] = frozenset()) -> int:
    """Number of unit-cost address computations of one path.

    Under :attr:`CostModel.STEADY_STATE` this is the per-iteration count
    of extra instructions for the register serving ``path`` in a
    steady-state loop.  ``free_deltas`` extends the free set for AGUs
    with modify registers (see :mod:`repro.modreg`).
    """
    return cost_kernel(pattern, modify_range, model,
                       free_deltas)(path.indices)


def cover_cost(paths: PathCover | Iterable[Path], pattern: AccessPattern,
               modify_range: int,
               model: CostModel = CostModel.STEADY_STATE,
               free_deltas: frozenset[int] = frozenset(), *,
               layout: MemoryLayout | None = None) -> int:
    """Total unit-cost address computations of an allocation.

    The allocation's cost is simply the sum of its path costs: registers
    are independent of each other.  ``paths`` is iterated once.
    ``layout`` prices it under concrete array bases (see
    :func:`cost_kernel`).
    """
    cost = cost_kernel(pattern, modify_range, model, free_deltas,
                       layout=layout)
    return sum(cost(path.indices) for path in paths)


def merge_cost(first: Path, second: Path, pattern: AccessPattern,
               modify_range: int,
               model: CostModel = CostModel.STEADY_STATE,
               free_deltas: frozenset[int] = frozenset()) -> int:
    """Cost ``C(P_i (+) P_j)`` of the would-be merged path.

    This is the quantity the paper's phase-2 heuristic minimizes over
    all path pairs.
    """
    return path_cost(first.merge(second), pattern, modify_range, model,
                     free_deltas)
