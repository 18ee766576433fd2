"""Joint path-merging + modify-register selection (iterative refinement).

Value selection is exact for a *fixed* allocation, but the best
allocation depends on which deltas are free -- a chicken-and-egg
problem.  The refinement loop alternates:

1. merge paths under the current free-delta set (best-pair merging with
   the MR-extended cost model),
2. re-select the optimal value set for the new allocation,

keeping the best (allocation, values) pair seen, until the cost stops
improving.  The result is never worse than the MR-free allocation with
values bolted on afterwards, and usually better.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agu.model import AguSpec
from repro.core.allocator import AddressRegisterAllocator, ProblemInput, \
    _coerce_pattern
from repro.core.config import AllocatorConfig
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel
from repro.merging.greedy import best_pair_merge
from repro.modreg.selection import residual_cost, select_modify_values
from repro.pathcover.paths import PathCover


@dataclass(frozen=True)
class ModRegAllocation:
    """An allocation together with its modify-register value set."""

    pattern: AccessPattern
    spec: AguSpec
    cover: PathCover
    modify_values: tuple[int, ...]
    #: Unit-cost computations per iteration with the MRs in effect.
    total_cost: int
    #: Cost of the plain (MR-free) allocation, for comparison.
    baseline_cost: int
    #: Refinement rounds actually executed.
    rounds: int

    @property
    def savings(self) -> int:
        """Unit-cost computations per iteration saved by the MRs."""
        return self.baseline_cost - self.total_cost


def allocate_with_modify_registers(
        problem: ProblemInput, spec: AguSpec,
        config: AllocatorConfig | None = None,
        max_rounds: int = 4) -> ModRegAllocation:
    """The paper's two-phase allocation, extended with MR selection.

    With ``spec.n_modify_registers == 0`` this reduces exactly to the
    paper's algorithm.
    """
    pattern = _coerce_pattern(problem)
    config = config if config is not None else AllocatorConfig()
    model: CostModel = config.cost_model
    allocator = AddressRegisterAllocator(spec, config)

    # The MR-free baseline is what ``allocate`` returns, without a
    # second phase 1: best-pair merging of the cover with no free
    # deltas (a no-op when the cover already fits).
    initial_cover = allocator.initial_cover(pattern)[0]
    base = best_pair_merge(initial_cover, spec.n_registers, pattern,
                           spec.modify_range, model)
    baseline_cost = base.total_cost

    best_cover = base.cover
    best_values = select_modify_values(base.cover, pattern,
                                       spec.modify_range,
                                       spec.n_modify_registers, model)
    best_cost = residual_cost(base.cover, pattern, spec.modify_range,
                              best_values, model)

    rounds = 0
    if spec.n_modify_registers > 0 and len(pattern) > 0:
        values = best_values
        for rounds in range(1, max_rounds + 1):
            if initial_cover.n_paths <= spec.n_registers:
                break  # no merging happens; nothing to re-optimize
            # Re-merge under the MR-extended metric of the current
            # value set, then re-select values for the new allocation.
            merged = best_pair_merge(initial_cover, spec.n_registers,
                                     pattern, spec.modify_range, model,
                                     free_deltas=frozenset(values)).cover
            values = select_modify_values(merged, pattern,
                                          spec.modify_range,
                                          spec.n_modify_registers, model)
            cost = residual_cost(merged, pattern, spec.modify_range,
                                 values, model)
            if cost < best_cost:
                best_cost = cost
                best_cover = merged
                best_values = values
            else:
                break

    return ModRegAllocation(
        pattern=pattern, spec=spec, cover=best_cover,
        modify_values=best_values, total_cost=best_cost,
        baseline_cost=baseline_cost, rounds=rounds)
