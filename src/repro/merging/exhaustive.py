"""Exhaustive optimal register allocation (small-instance reference).

Any allocation of the ``N`` accesses to ``K`` registers is a partition
of the positions into at most ``K`` increasing subsequences (the merge
operator preserves program order, so order within a register is never a
choice).  This module searches all such partitions with cost-based
pruning, yielding the true optimum -- used to measure how close the
paper's two-phase heuristic gets (experiment EXP-A3) and as a test
oracle.  Exponential: intended for ``N`` up to roughly 12.

It prices allocations with :func:`~repro.merging.cost.cost_kernel`,
the same rule the heuristics it judges are priced by.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError, SearchBudgetExceeded
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel, cost_kernel
from repro.pathcover.paths import PathCover

#: Default cap on explored assignment nodes.
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class OptimalAllocation:
    """Result of the exhaustive search."""

    cover: PathCover
    total_cost: int
    nodes_explored: int
    #: False when the node budget was hit (result then only an incumbent).
    proven_optimal: bool


def optimal_allocation(pattern: AccessPattern, n_registers: int,
                       modify_range: int,
                       model: CostModel = CostModel.STEADY_STATE,
                       node_budget: int = DEFAULT_NODE_BUDGET,
                       ) -> OptimalAllocation:
    """Minimum-cost allocation of a pattern to ``n_registers`` registers.

    Raises
    ------
    AllocationError
        For a non-positive register count.
    SearchBudgetExceeded
        Only if the budget is exhausted before any complete assignment
        is found (cannot happen for ``node_budget >= N``).
    """
    if n_registers < 1:
        raise AllocationError(
            f"need at least one address register, got {n_registers}")
    n = len(pattern)
    if n == 0:
        return OptimalAllocation(PathCover((), 0), 0, 0, True)
    limit = min(n_registers, n)

    # One step's cost is the INTRA cost of the pair; a leaf's total is
    # every register's cost under the requested model.
    step_cost = cost_kernel(pattern, modify_range, CostModel.INTRA)
    cost_of = cost_kernel(pattern, modify_range, model)

    groups: list[list[int]] = []
    best_cost: int | None = None
    best_groups: list[tuple[int, ...]] | None = None
    nodes = 0
    budget_hit = False

    def descend(position: int, cost: int) -> None:
        nonlocal nodes, best_cost, best_groups, budget_hit
        if budget_hit or best_cost == 0:
            return
        nodes += 1
        if nodes > node_budget:
            budget_hit = True
            return
        if best_cost is not None and cost >= best_cost:
            return
        if position == n:
            total = sum(cost_of(group) for group in groups)
            if best_cost is None or total < best_cost:
                best_cost = total
                best_groups = [tuple(group) for group in groups]
            return

        for group in groups:
            extra = step_cost((group[-1], position))
            group.append(position)
            descend(position + 1, cost + extra)
            group.pop()
            if budget_hit or best_cost == 0:
                return
        if len(groups) < limit:
            groups.append([position])
            descend(position + 1, cost)
            groups.pop()

    descend(0, 0)

    if best_groups is None:
        raise SearchBudgetExceeded(
            f"no complete assignment found within {node_budget} nodes")
    cover = PathCover.from_lists(best_groups, n)
    assert best_cost is not None
    return OptimalAllocation(cover, best_cost, nodes, not budget_hit)
