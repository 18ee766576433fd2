"""Best-pair path merging: the paper's phase-2 heuristic (section 3.2).

While more paths exist than physical registers, select the pair
``(P_i, P_j)`` whose merged cost ``C(P_i (+) P_j)`` is minimal among all
pairs, replace the two paths by their merge, and repeat.  Ties are
broken deterministically towards the lexicographically first pair (by
first access position), so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Callable, Sequence

from repro.errors import AllocationError
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel, cost_kernel
from repro.pathcover.paths import Path, PathCover


@dataclass(frozen=True)
class MergeStep:
    """One merge performed while reducing the path count."""

    left: Path
    right: Path
    merged: Path
    merged_cost: int

    def __str__(self) -> str:
        return (f"{self.left} (+) {self.right} -> {self.merged} "
                f"[C={self.merged_cost}]")


@dataclass(frozen=True)
class MergeResult:
    """Final allocation after merging down to the register limit."""

    cover: PathCover
    total_cost: int
    steps: tuple[MergeStep, ...] = field(default=())
    strategy: str = "best_pair"

    @property
    def n_registers(self) -> int:
        """Address registers the merged cover needs (its path count)."""
        return self.cover.n_paths


def best_pair_merge(cover: PathCover, n_registers: int,
                    pattern: AccessPattern, modify_range: int,
                    model: CostModel = CostModel.STEADY_STATE,
                    free_deltas: frozenset[int] = frozenset(),
                    ) -> MergeResult:
    """Merge paths until at most ``n_registers`` remain (paper phase 2).

    The input cover is typically phase 1's zero-cost cover (``K~``
    paths); any valid cover works, e.g. the intra-only fallback cover
    used when no zero-cost cover exists.  ``free_deltas`` extends the
    free-transition set for the modify-register extension
    (:mod:`repro.modreg`).
    """
    if n_registers < 1:
        raise AllocationError(
            f"need at least one address register, got {n_registers}")
    if cover.n_accesses != len(pattern):
        raise AllocationError(
            f"cover is over {cover.n_accesses} accesses but the pattern "
            f"has {len(pattern)}")

    cost = cost_kernel(pattern, modify_range, model, free_deltas)
    # Every pair is costed once; after a merge only the new path is
    # costed against the survivors.  Heap entries are keyed
    # (merged cost, first_i, first_j) with first_i < first_j -- the
    # deterministic tie-break of the paper's all-pairs minimum -- and
    # carry the two paths' ids; an entry whose path has since been
    # merged away is stale and skipped.
    paths: dict[int, Path] = dict(enumerate(cover))
    steps: list[MergeStep] = []
    heap: list[tuple[int, int, int, int, int]] = []
    if len(paths) > n_registers:
        heap = [_candidate(cost, i, paths[i], j, paths[j])
                for i, j in combinations(paths, 2)]
        heapify(heap)
    while len(paths) > n_registers:
        merged_cost, _, _, i, j = heappop(heap)
        if i not in paths or j not in paths:
            continue
        left, right = paths.pop(i), paths.pop(j)
        merged = left.merge(right)
        merged_id = cover.n_paths + len(steps)
        steps.append(MergeStep(left, right, merged, merged_cost))
        for other_id, other in paths.items():
            heappush(heap, _candidate(cost, merged_id, merged,
                                      other_id, other))
        paths[merged_id] = merged

    final = PathCover(tuple(paths.values()), cover.n_accesses)
    total = sum(cost(path.indices) for path in final)
    return MergeResult(final, total, tuple(steps), strategy="best_pair")


def _candidate(cost: Callable[[Sequence[int]], int], i: int, first: Path,
               j: int, second: Path) -> tuple[int, int, int, int, int]:
    """Heap entry for merging paths ``i`` and ``j``, costed on the raw
    sorted union (no :class:`Path` is built for a candidate)."""
    if second.first < first.first:
        i, first, j, second = j, second, i, first
    merged_cost = cost(sorted(first.indices + second.indices))
    return (merged_cost, first.first, second.first, i, j)
