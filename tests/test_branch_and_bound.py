"""Unit tests for the exact minimum zero-cost cover (phase 1)."""

import random

import pytest

from repro.errors import InfeasibleZeroCostCover
from repro.graph.access_graph import AccessGraph
from repro.ir.builder import LoopBuilder, pattern_from_offsets
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_cover_lower_bound
from repro.pathcover.paths import Path
from repro.pathcover.verify import is_zero_cost_path

from conftest import random_offsets


def brute_force_k_tilde(pattern, modify_range) -> int | None:
    """Reference: smallest zero-cost cover size by full enumeration."""
    n = len(pattern)
    best: list[int | None] = [None]

    def recurse(position: int, groups: list[list[int]]) -> None:
        if best[0] is not None and len(groups) >= best[0]:
            return
        if position == n:
            paths = [Path(tuple(group)) for group in groups]
            if all(is_zero_cost_path(path, pattern, modify_range)
                   for path in paths):
                best[0] = len(groups)
            return
        for group in groups:
            group.append(position)
            recurse(position + 1, groups)
            group.pop()
        groups.append([position])
        recurse(position + 1, groups)
        groups.pop()

    recurse(0, [])
    return best[0]


class TestPaperExample:
    def test_k_tilde_is_three(self, paper_pattern):
        result = minimum_zero_cost_cover(paper_pattern, 1)
        assert result.k_tilde == 3
        assert result.optimal

    def test_cover_is_zero_cost(self, paper_pattern):
        result = minimum_zero_cost_cover(paper_pattern, 1)
        for path in result.cover:
            assert is_zero_cost_path(path, paper_pattern, 1)

    def test_bounds_bracket_the_answer(self, paper_pattern):
        result = minimum_zero_cost_cover(paper_pattern, 1)
        assert result.lower_bound <= result.k_tilde <= result.upper_bound

    def test_wider_range_collapses_cover(self, paper_pattern):
        result = minimum_zero_cost_cover(paper_pattern, 4)
        assert result.k_tilde == 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(25))
    def test_small_random_instances(self, seed):
        rng = random.Random(seed)
        offsets = random_offsets(rng, rng.randint(1, 8), span=4)
        m = rng.choice([1, 2])
        pattern = pattern_from_offsets(offsets)
        result = minimum_zero_cost_cover(pattern, m)
        assert result.optimal
        assert result.k_tilde == brute_force_k_tilde(pattern, m)


class TestDecomposition:
    def test_multi_array_sums_per_group(self):
        builder = LoopBuilder()
        for offset in [0, 1, 2]:
            builder.read("x", offset)
        for offset in [5, 6]:
            builder.read("y", offset)
        pattern = builder.build_pattern()
        result = minimum_zero_cost_cover(pattern, 1)
        x_alone = minimum_zero_cost_cover(
            pattern_from_offsets([0, 1, 2], array="x"), 1)
        y_alone = minimum_zero_cost_cover(
            pattern_from_offsets([5, 6], array="y"), 1)
        assert result.k_tilde == x_alone.k_tilde + y_alone.k_tilde

    def test_paths_never_cross_arrays(self):
        pattern = (LoopBuilder().read("x", 0).read("y", 0).read("x", 1)
                   .read("y", 1).build_pattern())
        result = minimum_zero_cost_cover(pattern, 1)
        for path in result.cover:
            arrays = {pattern[position].array for position in path}
            assert len(arrays) == 1

    def test_coefficient_groups_are_separate(self):
        pattern = (LoopBuilder().read("x", 0, coefficient=2)
                   .read("x", 1, coefficient=2)
                   .read("x", 0, coefficient=1).build_pattern())
        result = minimum_zero_cost_cover(pattern, 2)
        for path in result.cover:
            coefficients = {pattern[p].coefficient for p in path}
            assert len(coefficients) == 1


class TestFeasibilityEdgeCases:
    def test_empty_pattern(self):
        result = minimum_zero_cost_cover(pattern_from_offsets([]), 1)
        assert result.k_tilde == 0
        assert result.optimal

    def test_infeasible_singleton(self):
        # coefficient 2, M=1: even one access cannot wrap for free and
        # no pairing helps (single access).
        pattern = (LoopBuilder().read("x", 0, coefficient=2)
                   .build_pattern())
        with pytest.raises(InfeasibleZeroCostCover):
            minimum_zero_cost_cover(pattern, 1)

    def test_pairing_rescues_large_coefficient(self):
        # x[2i] and x[2i+1]: singletons wrap at distance 2 > 1, but the
        # pair (both on one register) wraps at distance 1.  The B&B must
        # find this even though the greedy heuristic cannot.
        pattern = (LoopBuilder().read("x", 0, coefficient=2)
                   .read("x", 1, coefficient=2).build_pattern())
        result = minimum_zero_cost_cover(pattern, 1)
        assert result.k_tilde == 1

    def test_big_step_infeasible(self):
        pattern = pattern_from_offsets([0, 1], step=5)
        with pytest.raises(InfeasibleZeroCostCover):
            minimum_zero_cost_cover(pattern, 1)


class TestBudget:
    def test_tiny_budget_still_returns_greedy_quality(self, rng):
        offsets = random_offsets(rng, 18, span=5)
        pattern = pattern_from_offsets(offsets)
        graph = AccessGraph(pattern, 1)
        result = minimum_zero_cost_cover(pattern, 1, node_budget=5)
        # With almost no budget the incumbent is the greedy cover.
        assert result.k_tilde <= greedy_zero_cost_cover(graph).n_paths
        assert result.k_tilde >= intra_cover_lower_bound(graph)

    def test_budget_exhaustion_flagged(self, rng):
        # A large instance with a tight budget should report non-proven
        # optimality (unless greedy already matches the lower bound).
        offsets = random_offsets(rng, 30, span=3)
        pattern = pattern_from_offsets(offsets)
        result = minimum_zero_cost_cover(pattern, 1, node_budget=3)
        graph = AccessGraph(pattern, 1)
        if result.k_tilde != intra_cover_lower_bound(graph):
            assert not result.optimal
