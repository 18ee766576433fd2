"""Naive merging baselines: the paper's comparison point (section 4).

The paper evaluates its heuristic "as compared to a non-optimized
address register allocation, which repetitively merges two arbitrary
paths until the register constraint is met".  ``arbitrary`` is realized
by three interchangeable strategies:

* ``random`` -- merge a uniformly random pair (seeded; the default, and
  what the statistical experiment averages over);
* ``first_pair`` -- always merge the two paths that start earliest;
* ``last_pair`` -- always merge the two paths that start latest.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.errors import AllocationError
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel, cost_kernel
from repro.merging.greedy import MergeResult, MergeStep
from repro.pathcover.paths import Path, PathCover

_PairPicker = Callable[[list[Path], random.Random], tuple[int, int]]


def _pick_random(paths: list[Path], rng: random.Random) -> tuple[int, int]:
    i, j = rng.sample(range(len(paths)), 2)
    return (i, j) if i < j else (j, i)


def _pick_first_pair(paths: list[Path],
                     rng: random.Random) -> tuple[int, int]:
    return (0, 1)


def _pick_last_pair(paths: list[Path], rng: random.Random) -> tuple[int, int]:
    return (len(paths) - 2, len(paths) - 1)


NAIVE_STRATEGIES: dict[str, _PairPicker] = {
    "random": _pick_random,
    "first_pair": _pick_first_pair,
    "last_pair": _pick_last_pair,
}


def naive_merge(cover: PathCover, n_registers: int, pattern: AccessPattern,
                modify_range: int,
                model: CostModel = CostModel.STEADY_STATE,
                strategy: str = "random",
                seed: int | None = 0, *,
                cost: Callable[[Sequence[int]], int] | None = None,
                ) -> MergeResult:
    """Merge arbitrary path pairs until ``n_registers`` remain.

    ``seed`` only matters for the ``random`` strategy; passing ``None``
    uses a nondeterministic seed (not recommended outside exploration).
    ``cost`` is the caller's :func:`~repro.merging.cost.cost_kernel`
    for the same pattern, ``modify_range`` and ``model``, when it
    already has one; otherwise it is built here.
    """
    if n_registers < 1:
        raise AllocationError(
            f"need at least one address register, got {n_registers}")
    if cover.n_accesses != len(pattern):
        raise AllocationError(
            f"cover is over {cover.n_accesses} accesses but the pattern "
            f"has {len(pattern)}")
    try:
        picker = NAIVE_STRATEGIES[strategy]
    except KeyError:
        raise AllocationError(
            f"unknown naive strategy {strategy!r}; available: "
            f"{sorted(NAIVE_STRATEGIES)}") from None

    if cost is None:
        cost = cost_kernel(pattern, modify_range, model)
    rng = random.Random(seed)
    # The cover's paths are in canonical order (by first access), and a
    # merge keeps paths[i].first, so writing it back at i keeps the
    # order with no sort.
    paths: list[Path] = list(cover)
    steps: list[MergeStep] = []
    while len(paths) > n_registers:
        i, j = picker(paths, rng)
        if not (0 <= i < j < len(paths)):
            raise AllocationError(
                f"strategy {strategy!r} picked invalid pair ({i}, {j})")
        merged = paths[i].merge(paths[j])
        steps.append(MergeStep(paths[i], paths[j], merged,
                               cost(merged.indices)))
        paths[i] = merged
        del paths[j]

    final = PathCover(tuple(paths), cover.n_accesses)
    total = sum(cost(path.indices) for path in final)
    return MergeResult(final, total, tuple(steps),
                       strategy=f"naive/{strategy}")
