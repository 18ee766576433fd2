"""The all-pairs phase-2 mergers, kept as test-local oracles.

This is phase 2 as it was before :mod:`repro.merging.cost` encoded the
pattern once and :func:`repro.merging.greedy.best_pair_merge` costed
pairs incrementally: every path cost is summed straight from the
distance definitions (:func:`~repro.pathcover.verify.path_intra_distances`,
:func:`~repro.pathcover.verify.path_wrap_distance` and
:func:`~repro.graph.distance.transition_cost`), and every best-pair
step re-costs every pair on a freshly built :class:`Path` -- O(P^3 N).
The differential tests compare the library's costs and
:class:`~repro.merging.greedy.MergeResult` values against it field for
field.  Do not optimise it.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.errors import AllocationError
from repro.graph.distance import transition_cost
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel
from repro.merging.greedy import MergeResult, MergeStep
from repro.merging.naive import NAIVE_STRATEGIES
from repro.pathcover.paths import Path, PathCover
from repro.pathcover.verify import path_intra_distances, path_wrap_distance


def reference_path_cost(path: Path, pattern: AccessPattern,
                        modify_range: int,
                        model: CostModel = CostModel.STEADY_STATE,
                        free_deltas: frozenset[int] = frozenset()) -> int:
    """``C(P)`` summed from the distance definitions."""
    cost = sum(transition_cost(distance, modify_range, free_deltas)
               for distance in path_intra_distances(path, pattern))
    if model is CostModel.STEADY_STATE:
        cost += transition_cost(path_wrap_distance(path, pattern),
                                modify_range, free_deltas)
    return cost


def reference_cover_cost(paths: Iterable[Path], pattern: AccessPattern,
                         modify_range: int,
                         model: CostModel = CostModel.STEADY_STATE,
                         free_deltas: frozenset[int] = frozenset()) -> int:
    """Sum of :func:`reference_path_cost` over the paths."""
    return sum(reference_path_cost(path, pattern, modify_range, model,
                                   free_deltas)
               for path in paths)


def reference_best_pair_merge(cover: PathCover, n_registers: int,
                              pattern: AccessPattern, modify_range: int,
                              model: CostModel = CostModel.STEADY_STATE,
                              free_deltas: frozenset[int] = frozenset(),
                              ) -> MergeResult:
    """Best-pair merging, re-costing all pairs at every step."""
    if n_registers < 1:
        raise AllocationError(
            f"need at least one address register, got {n_registers}")
    if cover.n_accesses != len(pattern):
        raise AllocationError(
            f"cover is over {cover.n_accesses} accesses but the pattern "
            f"has {len(pattern)}")

    paths: list[Path] = list(cover)
    steps: list[MergeStep] = []
    while len(paths) > n_registers:
        best_pair: tuple[int, int] | None = None
        best_key: tuple[int, int, int] | None = None
        # Canonical order makes tie-breaking deterministic.
        paths.sort(key=lambda path: path.first)
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                merged_cost = reference_path_cost(
                    paths[i].merge(paths[j]), pattern, modify_range,
                    model, free_deltas)
                key = (merged_cost, paths[i].first, paths[j].first)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (i, j)
        assert best_pair is not None and best_key is not None
        i, j = best_pair
        merged = paths[i].merge(paths[j])
        steps.append(MergeStep(paths[i], paths[j], merged, best_key[0]))
        # Remove j first (j > i) so i's index stays valid.
        del paths[j]
        del paths[i]
        paths.append(merged)

    final = PathCover(tuple(paths), cover.n_accesses)
    total = reference_cover_cost(final, pattern, modify_range, model,
                                 free_deltas)
    return MergeResult(final, total, tuple(steps), strategy="best_pair")


def reference_naive_merge(cover: PathCover, n_registers: int,
                          pattern: AccessPattern, modify_range: int,
                          model: CostModel = CostModel.STEADY_STATE,
                          strategy: str = "random",
                          seed: int | None = 0) -> MergeResult:
    """Naive merging, costing each merged path from the definitions."""
    if n_registers < 1:
        raise AllocationError(
            f"need at least one address register, got {n_registers}")
    if cover.n_accesses != len(pattern):
        raise AllocationError(
            f"cover is over {cover.n_accesses} accesses but the pattern "
            f"has {len(pattern)}")
    picker = NAIVE_STRATEGIES[strategy]

    rng = random.Random(seed)
    paths: list[Path] = list(cover)
    steps: list[MergeStep] = []
    while len(paths) > n_registers:
        paths.sort(key=lambda path: path.first)
        i, j = picker(paths, rng)
        merged = paths[i].merge(paths[j])
        merged_cost = reference_cover_cost([merged], pattern,
                                           modify_range, model)
        steps.append(MergeStep(paths[i], paths[j], merged, merged_cost))
        del paths[j]
        del paths[i]
        paths.append(merged)

    final = PathCover(tuple(paths), cover.n_accesses)
    total = reference_cover_cost(final, pattern, modify_range, model)
    return MergeResult(final, total, tuple(steps),
                       strategy=f"naive/{strategy}")
