"""Unit tests for the exhaustive optimal allocator (EXP-A3 oracle)."""

import itertools
import random

import pytest

from repro.errors import AllocationError
from repro.ir.builder import LoopBuilder, pattern_from_offsets
from repro.merging.cost import CostModel, cover_cost
from repro.merging.exhaustive import optimal_allocation
from repro.pathcover.paths import PathCover

from conftest import PAPER_OFFSETS


def brute_force_cost(pattern, n_registers, modify_range, model):
    """Reference optimum via raw enumeration of register assignments."""
    n = len(pattern)
    best = None
    for assignment in itertools.product(range(n_registers), repeat=n):
        groups: dict[int, list[int]] = {}
        for position, register in enumerate(assignment):
            groups.setdefault(register, []).append(position)
        cover = PathCover.from_lists(groups.values(), n)
        cost = cover_cost(cover, pattern, modify_range, model)
        if best is None or cost < best:
            best = cost
    return best


class TestSmallInstances:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_raw_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        m = rng.choice([1, 2])
        model = rng.choice(list(CostModel))
        pattern = pattern_from_offsets(
            [rng.randint(-3, 3) for _ in range(n)])
        result = optimal_allocation(pattern, k, m, model)
        assert result.proven_optimal
        assert result.total_cost == brute_force_cost(pattern, k, m, model)

    def test_paper_example_with_two_registers(self, paper_pattern):
        result = optimal_allocation(paper_pattern, 2, 1)
        assert result.total_cost == 2  # matches the heuristic here

    def test_paper_example_with_three_registers_is_free(self, paper_pattern):
        result = optimal_allocation(paper_pattern, 3, 1)
        assert result.total_cost == 0

    def test_cost_consistent_with_cover(self, paper_pattern):
        result = optimal_allocation(paper_pattern, 2, 1)
        assert result.total_cost == cover_cost(result.cover,
                                               paper_pattern, 1)


class TestEdgeCases:
    def test_empty_pattern(self):
        result = optimal_allocation(pattern_from_offsets([]), 2, 1)
        assert result.total_cost == 0
        assert result.cover.n_paths == 0

    def test_more_registers_than_accesses(self):
        pattern = pattern_from_offsets([0, 5])
        result = optimal_allocation(pattern, 10, 1)
        assert result.cover.n_paths <= 2

    def test_zero_registers_rejected(self, paper_pattern):
        with pytest.raises(AllocationError):
            optimal_allocation(paper_pattern, 0, 1)

    def test_intra_model_ignores_wrap(self):
        pattern = pattern_from_offsets([0], step=5)
        assert optimal_allocation(pattern, 1, 1,
                                  CostModel.INTRA).total_cost == 0
        assert optimal_allocation(pattern, 1, 1,
                                  CostModel.STEADY_STATE).total_cost == 1

    def test_more_registers_never_hurt(self, rng):
        pattern = pattern_from_offsets([rng.randint(-4, 4)
                                        for _ in range(8)])
        costs = [optimal_allocation(pattern, k, 1).total_cost
                 for k in (1, 2, 3)]
        assert costs[0] >= costs[1] >= costs[2]


# ----------------------------------------------------------------------
# Pinned searches: the search visits the same nodes, in the same order,
# whichever way its steps and leaves are priced.
# ----------------------------------------------------------------------
TWO_ARRAYS = (LoopBuilder("two").array("x").array("y")
              .read("x", 0).read("y", 1).read("x", 3).write("y", 0)
              .read("x", 1).read("y", -1).read("x", 0, coefficient=2)
              .build().pattern)

PINNED = [
    # (pattern, K, M, model, node budget) -> (cover, cost, nodes, proven)
    ((pattern_from_offsets(PAPER_OFFSETS), 2, 1, CostModel.STEADY_STATE,
      None), ([(0, 1, 3, 6), (2, 4, 5)], 2, 84, True)),
    ((pattern_from_offsets(PAPER_OFFSETS), 1, 1, CostModel.INTRA, None),
     ([(0, 1, 2, 3, 4, 5, 6)], 4, 8, True)),
    ((pattern_from_offsets(PAPER_OFFSETS), 3, 0, CostModel.STEADY_STATE,
      None), ([(0, 1, 2), (3, 4, 5), (6,)], 5, 551, True)),
    ((pattern_from_offsets(PAPER_OFFSETS), 3, 0, CostModel.STEADY_STATE,
      50), ([(0, 1, 2), (3, 4, 5), (6,)], 5, 51, False)),
    ((TWO_ARRAYS, 2, 1, CostModel.STEADY_STATE, None),
     ([(0, 2, 4), (1, 3, 5, 6)], 4, 118, True)),
    ((TWO_ARRAYS, 3, 2, CostModel.INTRA, None),
     ([(0, 1, 3, 5), (2, 4), (6,)], 1, 65, True)),
    ((pattern_from_offsets([0, 3, -1, 4, 2, 1], step=2), 2, 1,
      CostModel.STEADY_STATE, None), ([(0, 2, 4, 5), (1, 3)], 1, 46, True)),
]


@pytest.mark.parametrize("case, expected", PINNED)
def test_pinned_search(case, expected):
    pattern, n_registers, modify_range, model, budget = case
    kwargs = {} if budget is None else {"node_budget": budget}
    result = optimal_allocation(pattern, n_registers, modify_range, model,
                                **kwargs)
    assert ([path.indices for path in result.cover], result.total_cost,
            result.nodes_explored, result.proven_optimal) == expected
