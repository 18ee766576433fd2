"""Allocation results: what the two-phase allocator hands back."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agu.model import AguSpec
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel
from repro.merging.greedy import MergeStep
from repro.pathcover.paths import PathCover


@dataclass(frozen=True)
class AllocationResult:
    """A finished address-register allocation.

    Attributes
    ----------
    pattern, spec:
        The problem instance.
    cover:
        Final allocation: one path per used address register.
    total_cost:
        Unit-cost address computations per loop iteration under
        ``cost_model`` (0 means fully free addressing).
    cost_model:
        The cost model the total was computed under.
    k_tilde:
        Phase-1 minimum number of virtual registers, when phase 1 found
        a zero-cost cover (``None`` when it was skipped or infeasible).
    phase1_feasible:
        False when no zero-cost cover exists (modify range smaller than
        an access's per-iteration step) and the allocator fell back to
        the minimum intra-iteration cover.
    phase1_optimal:
        Whether ``k_tilde`` was proven minimal (False under greedy
        fallback or budget exhaustion; meaningless when infeasible).
    merge_steps:
        The phase-2 merges, in order.
    strategy:
        ``"best_pair"`` for the paper's heuristic, ``"naive/..."`` for
        baselines, ``"none"`` when no merging was needed.
    """

    pattern: AccessPattern
    spec: AguSpec
    cover: PathCover
    total_cost: int
    cost_model: CostModel
    k_tilde: int | None
    phase1_feasible: bool
    phase1_optimal: bool
    merge_steps: tuple[MergeStep, ...] = field(default=())
    strategy: str = "best_pair"

    @property
    def n_registers_used(self) -> int:
        """Distinct address registers the allocation actually uses."""
        return self.cover.n_paths

    @property
    def is_zero_cost(self) -> bool:
        """True when every address computation rides along for free."""
        return self.total_cost == 0

    def summary(self) -> str:
        """Multi-line human-readable account of the allocation."""
        lines = [
            f"allocation of {len(self.pattern)} accesses on {self.spec}",
            f"  strategy:        {self.strategy}",
            f"  cost model:      {self.cost_model.value}",
        ]
        if self.k_tilde is not None:
            proof = "exact" if self.phase1_optimal else "heuristic"
            lines.append(f"  K~ (virtual):    {self.k_tilde} ({proof})")
        elif not self.phase1_feasible:
            lines.append("  K~ (virtual):    infeasible (M < step); "
                         "intra-cover fallback")
        lines.append(f"  registers used:  {self.n_registers_used}")
        lines.append(f"  unit-cost/iter:  {self.total_cost}")
        for index, path in enumerate(self.cover):
            accesses = ", ".join(
                f"{self.pattern.label(position)}" for position in path)
            lines.append(f"    AR{index}: {accesses}")
        if self.merge_steps:
            lines.append(f"  merges performed: {len(self.merge_steps)}")
            for step in self.merge_steps:
                lines.append(f"    {step}")
        return "\n".join(lines)
