"""Gap selection between arrays to free cross-array transitions.

Given an allocation (path cover), every cross-array transition of a
register has a *symbolic* distance ``(base_target - base_source) +
constant``.  Placing arrays back-to-back with chosen gaps turns these
into concrete values; a gap that lands a frequent transition inside the
auto-modify range eliminates its unit cost.

The optimizer works pairwise over *adjacently placed* arrays (the gap
between two adjacent arrays is a single free variable; transitions
between non-adjacent arrays depend on sums of gaps and are scored but
not targeted).  For small array counts it additionally tries all
placement orders and keeps the cheapest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from repro.errors import LayoutError
from repro.ir.layout import MemoryLayout
from repro.ir.types import AccessPattern, ArrayDecl
from repro.merging.cost import CostModel, cover_cost
from repro.pathcover.paths import PathCover

#: Above this many arrays, only the natural (first-use) order is tried.
_PERMUTATION_LIMIT = 4


@dataclass(frozen=True)
class LayoutPlan:
    """An optimized layout and its accounting."""

    layout: MemoryLayout
    cost: int
    #: Cost under the reference (guard-gap) layout, for comparison.
    baseline_cost: int
    order: tuple[str, ...]

    @property
    def savings(self) -> int:
        """Cost units saved vs the reference guard-gap layout."""
        return self.baseline_cost - self.cost


def _cross_array_demands(cover: PathCover, pattern: AccessPattern,
                         model: CostModel) -> Counter[tuple[str, str, int]]:
    """Histogram of cross-array transitions as ``(src, dst, delta)``.

    ``delta`` is the transition's constant part: the concrete distance
    will be ``(base_dst - base_src) + delta``.  Only same-coefficient
    transitions are collected (others can never be constant).
    """
    demands: Counter[tuple[str, str, int]] = Counter()
    step = pattern.step

    def record(source_position: int, target_position: int,
               wrap: bool) -> None:
        source = pattern[source_position]
        target = pattern[target_position]
        if source.array == target.array:
            return
        if source.coefficient != target.coefficient:
            return
        delta = target.offset - source.offset
        if wrap:
            delta += target.coefficient * step
        demands[(source.array, target.array, delta)] += 1

    for path in cover:
        for p, q in path.transitions():
            record(p, q, wrap=False)
        if model is CostModel.STEADY_STATE and len(path) >= 1:
            record(path.last, path.first, wrap=True)
    return demands


def _sizes(decls: dict[str, ArrayDecl]) -> dict[str, int]:
    return {
        name: (decl.length if decl.length is not None
               else MemoryLayout.DEFAULT_LENGTH) * decl.element_size
        for name, decl in decls.items()
    }


def _build_layout(order: tuple[str, ...], gaps: dict[str, int],
                  decls: dict[str, ArrayDecl], origin: int) -> MemoryLayout:
    sizes = _sizes(decls)
    bases = {}
    cursor = origin
    for index, name in enumerate(order):
        bases[name] = cursor
        cursor += sizes[name] + gaps.get(name, 0)
    return MemoryLayout.explicit(bases, [decls[name] for name in order])


def _optimize_gaps_for_order(order: tuple[str, ...],
                             demands: Counter[tuple[str, str, int]],
                             decls: dict[str, ArrayDecl],
                             modify_range: int,
                             origin: int) -> MemoryLayout:
    """Pick each adjacent gap to free the heaviest transition pair."""
    sizes = _sizes(decls)
    gaps: dict[str, int] = {}
    for left, right in zip(order, order[1:]):
        # Candidate base distances B = base_right - base_left = size+gap.
        # left->right transition with delta D is free iff |B + D| <= M;
        # right->left iff |-B + D| <= M, i.e. B in [D - M, D + M].
        candidates: Counter[int] = Counter()
        minimum = sizes[left]
        for (src, dst, delta), count in demands.items():
            if (src, dst) == (left, right):
                window = range(-delta - modify_range,
                               -delta + modify_range + 1)
            elif (src, dst) == (right, left):
                window = range(delta - modify_range,
                               delta + modify_range + 1)
            else:
                continue
            for base_distance in window:
                if base_distance >= minimum:
                    candidates[base_distance] += count
        if candidates:
            # Heaviest coverage; ties towards the tightest packing.
            best_distance, _votes = min(
                candidates.items(), key=lambda item: (-item[1], item[0]))
            gaps[left] = best_distance - minimum
        else:
            # Nothing to gain: keep arrays out of accidental range.
            gaps[left] = modify_range + 1
    return _build_layout(order, gaps, decls, origin)


def optimize_layout(pattern: AccessPattern, cover: PathCover,
                    decls: list[ArrayDecl] | tuple[ArrayDecl, ...],
                    modify_range: int,
                    model: CostModel = CostModel.STEADY_STATE,
                    origin: int = 0,
                    try_permutations: bool = True) -> LayoutPlan:
    """Choose array placement minimizing the allocation's real cost.

    ``decls`` must declare every array the pattern touches.  The
    returned plan's ``baseline_cost`` refers to the reference layout
    (first-use order, guard gaps), so ``savings`` isolates the layout
    effect.
    """
    by_name = {decl.name: decl for decl in decls}
    missing = [name for name in pattern.arrays() if name not in by_name]
    if missing:
        raise LayoutError(f"no declarations for arrays {missing}")

    natural_order = pattern.arrays()
    reference = MemoryLayout.contiguous(
        [by_name[name] for name in natural_order], origin=origin,
        gap=modify_range + 1)
    baseline_cost = cover_cost(cover, pattern, modify_range, model,
                               layout=reference)

    demands = _cross_array_demands(cover, pattern, model)
    orders: list[tuple[str, ...]] = [natural_order]
    if try_permutations and 1 < len(natural_order) <= _PERMUTATION_LIMIT:
        orders = [tuple(order)
                  for order in permutations(natural_order)]

    best_layout = reference
    best_cost = baseline_cost
    best_order = natural_order
    for order in orders:
        layout = _optimize_gaps_for_order(order, demands, by_name,
                                          modify_range, origin)
        cost = cover_cost(cover, pattern, modify_range, model,
                          layout=layout)
        if cost < best_cost:
            best_layout, best_cost, best_order = layout, cost, order
    return LayoutPlan(layout=best_layout, cost=best_cost,
                      baseline_cost=baseline_cost, order=best_order)
