"""Unit tests for the array-layout extension."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.agu.codegen import generate_address_code
from repro.agu.isa import PointTo
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.arraylayout.distance import (
    concrete_intra_distance,
    concrete_wrap_distance,
)
from repro.arraylayout.optimize import optimize_layout
from repro.core.allocator import AddressRegisterAllocator
from repro.core.pipeline import compile_kernel
from repro.errors import LayoutError
from repro.graph.distance import transition_cost
from repro.ir.builder import LoopBuilder
from repro.ir.expr import AffineExpr
from repro.ir.layout import MemoryLayout
from repro.ir.types import ArrayAccess, ArrayDecl
from repro.merging.cost import CostModel, cover_cost
from repro.pathcover.paths import PathCover
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_batch,
)

from test_cost import mixed_patterns


def acc(array, coeff, offset):
    return ArrayAccess(array, AffineExpr(coeff, offset))


@pytest.fixture
def two_arrays_layout():
    return MemoryLayout.explicit(
        {"x": 0, "y": 10},
        [ArrayDecl("x", length=8), ArrayDecl("y", length=8)])


class TestConcreteDistances:
    def test_cross_array_becomes_constant(self, two_arrays_layout):
        distance = concrete_intra_distance(acc("x", 1, 2), acc("y", 1, 0),
                                           two_arrays_layout)
        assert distance == 10 - 2

    def test_same_array_matches_symbolic(self, two_arrays_layout):
        from repro.graph.distance import intra_distance
        a, b = acc("x", 1, 1), acc("x", 1, -2)
        assert concrete_intra_distance(a, b, two_arrays_layout) == \
            intra_distance(a, b)

    def test_different_coefficients_still_none(self, two_arrays_layout):
        assert concrete_intra_distance(acc("x", 1, 0), acc("y", 2, 0),
                                       two_arrays_layout) is None

    def test_wrap_includes_step(self, two_arrays_layout):
        distance = concrete_wrap_distance(acc("y", 1, 0), acc("x", 1, 3),
                                          step=2,
                                          layout=two_arrays_layout)
        assert distance == (0 + 2 + 3) - (10 + 0)


class TestOptimizeLayout:
    def _tail_head_kernel(self):
        return (LoopBuilder("tailhead", n_iterations=16)
                .array("x", length=4).array("y", length=64)
                .read("x", 3).write("y", 0).build())

    def test_tail_head_becomes_free(self):
        kernel = self._tail_head_kernel()
        allocation = AddressRegisterAllocator(AguSpec(1, 1)) \
            .allocate(kernel.pattern)
        plan = optimize_layout(kernel.pattern, allocation.cover,
                               kernel.arrays, modify_range=1)
        assert plan.baseline_cost == 2
        assert plan.cost == 0
        assert plan.savings == 2
        # y must sit immediately after x for the walk-across.
        assert plan.layout.base("y") == plan.layout.base("x") + 4

    def test_never_worse_than_reference(self):
        patterns = generate_batch(
            RandomPatternConfig(12, offset_span=5, n_arrays=3), 10,
            seed=77)
        allocator = AddressRegisterAllocator(AguSpec(2, 1))
        for pattern in patterns:
            allocation = allocator.allocate(pattern)
            decls = [ArrayDecl(name, length=8)
                     for name in pattern.arrays()]
            plan = optimize_layout(pattern, allocation.cover, decls, 1)
            assert plan.cost <= plan.baseline_cost

    def test_layouts_never_overlap(self):
        patterns = generate_batch(
            RandomPatternConfig(10, offset_span=5, n_arrays=3), 8,
            seed=13)
        allocator = AddressRegisterAllocator(AguSpec(1, 1))
        for pattern in patterns:
            allocation = allocator.allocate(pattern)
            decls = [ArrayDecl(name, length=6)
                     for name in pattern.arrays()]
            # MemoryLayout.explicit raises on overlap; constructing the
            # plan at all is the assertion.
            plan = optimize_layout(pattern, allocation.cover, decls, 1)
            assert set(plan.layout.arrays()) == set(pattern.arrays())

    def test_single_array_is_untouched(self, paper_pattern):
        allocation = AddressRegisterAllocator(AguSpec(2, 1)) \
            .allocate(paper_pattern)
        plan = optimize_layout(paper_pattern, allocation.cover,
                               [ArrayDecl("A", length=16)], 1)
        assert plan.cost == plan.baseline_cost == allocation.total_cost

    def test_missing_declaration_rejected(self, paper_pattern):
        allocation = AddressRegisterAllocator(AguSpec(2, 1)) \
            .allocate(paper_pattern)
        with pytest.raises(LayoutError, match="no declarations"):
            optimize_layout(paper_pattern, allocation.cover, [], 1)


class TestLayoutAwareCodegen:
    def test_constant_cross_array_jump_folds_or_modifies(self):
        kernel = (LoopBuilder(n_iterations=8)
                  .array("x", length=4).array("y", length=4)
                  .read("x", 3).write("y", 0).build())
        allocation = AddressRegisterAllocator(AguSpec(1, 1)) \
            .allocate(kernel.pattern)
        plan = optimize_layout(kernel.pattern, allocation.cover,
                               kernel.arrays, 1)
        program = generate_address_code(kernel.pattern, allocation.cover,
                                        AguSpec(1, 1), layout=plan.layout)
        # No PointTo left in the body: every transition is constant.
        assert not any(isinstance(instr, PointTo)
                       for instr in program.body)
        assert program.overhead_per_iteration == plan.cost

    def test_simulation_verifies_layout_aware_code(self):
        kernel = (LoopBuilder(n_iterations=10)
                  .array("x", length=4).array("y", length=64)
                  .read("x", 3).write("y", 0).build())
        allocation = AddressRegisterAllocator(AguSpec(1, 1)) \
            .allocate(kernel.pattern)
        plan = optimize_layout(kernel.pattern, allocation.cover,
                               kernel.arrays, 1)
        program = generate_address_code(kernel.pattern, allocation.cover,
                                        AguSpec(1, 1), layout=plan.layout)
        result = simulate(program, kernel.loop, plan.layout)
        assert result.overhead_per_iteration == plan.cost

    def test_static_check_uses_layout_model(self, two_arrays_layout):
        # The layout-priced cover cost and codegen accounting must
        # agree on any cover; exercise via a ping-pong allocation.
        kernel = (LoopBuilder(n_iterations=4)
                  .array("x", length=8).array("y", length=8)
                  .read("x", 0).read("y", 0).build())
        allocation = AddressRegisterAllocator(AguSpec(1, 1)) \
            .allocate(kernel.pattern)
        program = generate_address_code(kernel.pattern, allocation.cover,
                                        AguSpec(1, 1),
                                        layout=two_arrays_layout)
        assert program.overhead_per_iteration == cover_cost(
            allocation.cover, kernel.pattern, 1, layout=two_arrays_layout)

    def test_without_layout_behaviour_unchanged(self, paper_pattern):
        allocation = AddressRegisterAllocator(AguSpec(2, 1)) \
            .allocate(paper_pattern)
        program = generate_address_code(paper_pattern, allocation.cover,
                                        AguSpec(2, 1))
        assert program.overhead_per_iteration == cover_cost(
            allocation.cover, paper_pattern, 1)


class TestCostModelConsistency:
    def test_guard_layout_agrees_with_symbolic_model(self):
        """With arrays long enough that no cross-array pair can land
        within the modify range, the layout-resolved cost must equal
        the paper's symbolic cost on every cover -- the two models are
        one model with different knowledge."""
        import random

        rng = random.Random(123)
        for _ in range(20):
            n = rng.randint(2, 10)
            pattern = generate_batch(
                RandomPatternConfig(n, offset_span=4, n_arrays=2), 1,
                seed=rng.randrange(10_000))[0]
            # Random cover.
            groups: dict[int, list[int]] = {}
            for position in range(n):
                groups.setdefault(rng.randrange(3), []).append(position)
            cover = PathCover.from_lists(groups.values(), n)
            decls = [ArrayDecl(name, length=32)
                     for name in pattern.arrays()]
            guard = MemoryLayout.contiguous(decls, gap=2)
            assert cover_cost(cover, pattern, 1, layout=guard) == \
                cover_cost(cover, pattern, 1)


def defined_layout_cost(cover, pattern, layout, modify_range, model,
                        free_deltas):
    """An allocation's cost under ``layout`` from the definitions: one
    :func:`transition_cost` per concrete intra transition, plus the
    concrete wrap-around under the steady-state model."""
    total = 0
    for path in cover:
        for p, q in path.transitions():
            total += transition_cost(
                concrete_intra_distance(pattern[p], pattern[q], layout),
                modify_range, free_deltas)
        if model is CostModel.STEADY_STATE:
            total += transition_cost(
                concrete_wrap_distance(pattern[path.last],
                                       pattern[path.first], pattern.step,
                                       layout),
                modify_range, free_deltas)
    return total


class TestLayoutPricingMatchesDefinitions:
    @settings(max_examples=200, deadline=None)
    @given(mixed_patterns(), st.data())
    def test_cover_cost_with_layout(self, pattern, data):
        # Arrays without a length have no footprint, so any bases
        # (equal ones included) form a valid layout.
        bases = {name: data.draw(st.integers(0, 20), label=name)
                 for name in "ABC"}
        layout = MemoryLayout.explicit(
            bases, [ArrayDecl(name) for name in "ABC"])
        modify_range = data.draw(st.integers(0, 3))
        model = data.draw(st.sampled_from(list(CostModel)))
        free_deltas = data.draw(st.frozensets(st.integers(-12, 12),
                                              max_size=4))
        owner = data.draw(st.lists(st.integers(0, 2),
                                   min_size=len(pattern),
                                   max_size=len(pattern)))
        cover = PathCover.from_lists(
            [[p for p, g in enumerate(owner) if g == group]
             for group in sorted(set(owner))], len(pattern))
        assert cover_cost(cover, pattern, modify_range, model,
                          free_deltas, layout=layout) == \
            defined_layout_cost(cover, pattern, layout, modify_range,
                                model, free_deltas)


class TestPipelineFlag:
    SOURCE = """
    int x[4], y[64];
    for (i = 0; i < 16; i++) {
        y[i] = x[3];
    }
    """

    def test_compile_kernel_with_layout_optimization(self):
        artifacts = compile_kernel(self.SOURCE, AguSpec(1, 1),
                                   optimize_array_layout=True)
        default = compile_kernel(self.SOURCE, AguSpec(1, 1))
        assert artifacts.simulation is not None
        assert artifacts.overhead_per_iteration <= \
            default.overhead_per_iteration
