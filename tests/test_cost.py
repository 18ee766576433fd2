"""Unit tests for path costs C(P) and the two cost models."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import GraphError, PathCoverError
from repro.ir.builder import LoopBuilder, pattern_from_offsets
from repro.ir.expr import AffineExpr
from repro.ir.types import AccessPattern, ArrayAccess
from repro.merging.cost import (
    CostModel,
    cost_kernel,
    cover_cost,
    merge_cost,
    path_cost,
)
from repro.merging.greedy import best_pair_merge
from repro.merging.naive import naive_merge
from repro.pathcover.paths import Path, PathCover

from _reference_merge import reference_path_cost


class TestIntraModel:
    def test_zero_for_tight_chain(self, paper_pattern):
        # (a_1, a_3, a_5, a_6): offsets 1,2,1,0 -- all steps within 1.
        assert path_cost(Path((0, 2, 4, 5)), paper_pattern, 1,
                         CostModel.INTRA) == 0

    def test_counts_each_long_jump(self, paper_pattern):
        # (a_1, a_4, a_7): offsets 1,-1,-2 -> jumps -2, -1: one unit.
        assert path_cost(Path((0, 3, 6)), paper_pattern, 1,
                         CostModel.INTRA) == 1

    def test_singleton_is_free(self, paper_pattern):
        assert path_cost(Path((2,)), paper_pattern, 1,
                         CostModel.INTRA) == 0

    def test_whole_pattern_on_one_register(self, paper_pattern):
        # Offsets 1,0,2,-1,1,0,-2: steps -1,+2,-3,+2,-1,-2 with M=1:
        # four jumps exceed the range.
        assert path_cost(Path(tuple(range(7))), paper_pattern, 1,
                         CostModel.INTRA) == 4


class TestSteadyStateModel:
    def test_adds_wrap_cost(self, paper_pattern):
        # (a_1, a_3, a_5, a_6): intra free, but wrap 1+1-0 = 2 > 1.
        assert path_cost(Path((0, 2, 4, 5)), paper_pattern, 1,
                         CostModel.STEADY_STATE) == 1

    def test_default_model_is_steady_state(self, paper_pattern):
        assert path_cost(Path((0, 2, 4, 5)), paper_pattern, 1) == 1

    def test_wrap_free_path(self, paper_pattern):
        # (a_1, a_3, a_5): offsets 1,2,1; wrap 1+1-1 = 1: all free.
        assert path_cost(Path((0, 2, 4)), paper_pattern, 1) == 0

    def test_singleton_wrap_follows_step(self):
        pattern = pattern_from_offsets([0], step=3)
        assert path_cost(Path((0,)), pattern, 1) == 1
        assert path_cost(Path((0,)), pattern, 3) == 0

    def test_cross_array_transitions_always_cost(self):
        pattern = (LoopBuilder().read("x", 0).read("y", 0)
                   .build_pattern())
        # Intra x->y is non-constant (1 unit) and wrap y->x too.
        assert path_cost(Path((0, 1)), pattern, 100) == 2


class TestCoverCost:
    def test_sums_over_paths(self, paper_pattern):
        cover = PathCover((Path((0, 2, 4)), Path((1, 3, 5)), Path((6,))),
                          7)
        total = cover_cost(cover, paper_pattern, 1)
        assert total == sum(path_cost(path, paper_pattern, 1)
                            for path in cover)
        assert total == 0  # this is the K~=3 zero-cost cover

    def test_accepts_plain_iterables(self, paper_pattern):
        paths = [Path((0, 2, 4)), Path((1, 3, 5)), Path((6,))]
        assert cover_cost(paths, paper_pattern, 1) == 0

    def test_accepts_a_one_shot_generator(self, paper_pattern):
        paths = [Path((0, 3, 6)), Path((1, 2)), Path((4, 5))]
        expected = cover_cost(paths, paper_pattern, 1)
        assert expected > 0
        assert cover_cost((path for path in paths), paper_pattern,
                          1) == expected


class TestMergeCost:
    def test_matches_merged_path_cost(self, paper_pattern):
        p1, p2 = Path((0, 2, 4)), Path((6,))
        assert merge_cost(p1, p2, paper_pattern, 1) == \
            path_cost(p1.merge(p2), paper_pattern, 1)

    def test_merging_zero_cost_paths_costs_at_least_one(self, paper_pattern):
        """The paper: "each merge operation incurs at least one unit-cost
        address computation" (by minimality of K~)."""
        zero_paths = [Path((0, 2, 4)), Path((1, 3, 5)), Path((6,))]
        for i in range(3):
            for j in range(i + 1, 3):
                assert merge_cost(zero_paths[i], zero_paths[j],
                                  paper_pattern, 1) >= 1

    def test_merge_can_beat_sum_but_not_minimality(self, rng):
        """Interleaving may *split* a long jump into free steps, so
        C(P1 (+) P2) is NOT monotone in the operands in general -- but
        merging two paths of a *minimum* zero-cost cover always costs
        at least 1 (else the cover was not minimal).
        """
        # Concrete non-monotonicity witness: offsets 0,5,10 with M=5.
        pattern = pattern_from_offsets([0, 5, 10])
        left = Path((0, 2))     # jump 10 > 5: cost 1 (intra)
        right = Path((1,))
        assert path_cost(left, pattern, 5, CostModel.INTRA) == 1
        assert merge_cost(left, right, pattern, 5, CostModel.INTRA) == 0

        # ... yet the minimal-cover property holds on random instances.
        from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
        for _ in range(20):
            n = rng.randint(2, 8)
            offsets = [rng.randint(-4, 4) for _ in range(n)]
            pat = pattern_from_offsets(offsets)
            cover = minimum_zero_cost_cover(pat, 1).cover
            paths = list(cover)
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    assert merge_cost(paths[i], paths[j], pat, 1) >= 1


class TestValidation:
    def test_out_of_range_path_rejected(self, paper_pattern):
        with pytest.raises(PathCoverError):
            path_cost(Path((0, 99)), paper_pattern, 1)


#: Every cost and merge entry point, under the INTRA model and on
#: singleton paths, so no transition is costed (except by merge_cost,
#: whose merged path always has one).
NEGATIVE_RANGE_CALLS = {
    "cost_kernel": lambda pattern: cost_kernel(
        pattern, -1, CostModel.INTRA),
    "path_cost": lambda pattern: path_cost(
        Path((0,)), pattern, -1, CostModel.INTRA),
    "cover_cost": lambda pattern: cover_cost(
        PathCover.finest(2), pattern, -1, CostModel.INTRA),
    "merge_cost": lambda pattern: merge_cost(
        Path((0,)), Path((1,)), pattern, -1, CostModel.INTRA),
    "best_pair_merge": lambda pattern: best_pair_merge(
        PathCover.finest(2), 2, pattern, -1, CostModel.INTRA),
    "naive_merge": lambda pattern: naive_merge(
        PathCover.finest(2), 2, pattern, -1, CostModel.INTRA),
}


class TestNegativeModifyRange:
    @pytest.mark.parametrize("entry_point", sorted(NEGATIVE_RANGE_CALLS))
    def test_rejected_without_costing_a_transition(self, entry_point):
        pattern = pattern_from_offsets([0, 5])
        with pytest.raises(GraphError, match="modify range"):
            NEGATIVE_RANGE_CALLS[entry_point](pattern)


# ----------------------------------------------------------------------
# The encoded kernel against the distance definitions
# ----------------------------------------------------------------------
@st.composite
def mixed_patterns(draw):
    """Patterns over several arrays and coefficients 0/1/2, indexed
    with one loop variable drawn per pattern (the kernel never reads
    its name)."""
    var = draw(st.sampled_from("ij"))
    accesses = draw(st.lists(
        st.builds(lambda array, coefficient, offset: ArrayAccess(
                      array, AffineExpr(coefficient, offset, var)),
                  st.sampled_from("ABC"), st.sampled_from((0, 1, 2)),
                  st.integers(-6, 6)),
        min_size=1, max_size=12))
    return AccessPattern(tuple(accesses),
                         step=draw(st.sampled_from((-1, 1, 2))),
                         loop_var=var)


@st.composite
def kernel_cases(draw):
    """A pattern, a path over it, and a cost configuration."""
    pattern = draw(mixed_patterns())
    positions = draw(st.sets(st.integers(0, len(pattern) - 1),
                             min_size=1))
    return (pattern, Path(tuple(sorted(positions))),
            draw(st.integers(0, 3)),
            draw(st.sampled_from(list(CostModel))),
            draw(st.frozensets(st.integers(-9, 9), min_size=1,
                               max_size=4)))


class TestKernelMatchesDefinitions:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_path_cost(self, case):
        pattern, path, modify_range, model, free_deltas = case
        expected = reference_path_cost(path, pattern, modify_range, model,
                                       free_deltas)
        assert path_cost(path, pattern, modify_range, model,
                         free_deltas) == expected
        assert cost_kernel(pattern, modify_range, model,
                           free_deltas)(path.indices) == expected

    @settings(max_examples=150, deadline=None)
    @given(mixed_patterns(), st.data())
    def test_cover_and_merge_cost(self, pattern, data):
        modify_range = data.draw(st.integers(0, 3))
        model = data.draw(st.sampled_from(list(CostModel)))
        free_deltas = data.draw(st.frozensets(st.integers(-9, 9),
                                              min_size=1, max_size=4))
        owner = data.draw(st.lists(st.integers(0, 2),
                                   min_size=len(pattern),
                                   max_size=len(pattern)))
        groups = [[p for p, g in enumerate(owner) if g == group]
                  for group in sorted(set(owner))]
        cover = PathCover.from_lists(groups, len(pattern))
        assert cover_cost(cover, pattern, modify_range, model,
                          free_deltas) == sum(
            reference_path_cost(path, pattern, modify_range, model,
                                free_deltas) for path in cover)
        if cover.n_paths >= 2:
            first, second = cover.paths[:2]
            assert merge_cost(first, second, pattern, modify_range, model,
                              free_deltas) == reference_path_cost(
                first.merge(second), pattern, modify_range, model,
                free_deltas)
