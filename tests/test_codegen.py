"""Unit tests for address code generation."""

from dataclasses import replace

import pytest

from repro.agu.codegen import (
    generate_address_code,
    generate_unoptimized_code,
)
from repro.agu.isa import Modify, PointTo, Use
from repro.agu.listing import program_listing
from repro.agu.model import AguSpec
from repro.errors import CodegenError
from repro.ir.builder import LoopBuilder, pattern_from_offsets
from repro.merging.cost import cover_cost
from repro.merging.greedy import best_pair_merge
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
from repro.pathcover.paths import PathCover

from conftest import random_offsets


class TestStructure:
    def test_one_use_per_access_in_order(self, paper_pattern):
        cover = minimum_zero_cost_cover(paper_pattern, 1).cover
        program = generate_address_code(paper_pattern, cover, AguSpec(3, 1))
        uses = [instruction for instruction in program.body
                if isinstance(instruction, Use)]
        assert [use.position for use in uses] == list(range(7))

    def test_prologue_points_each_register(self, paper_pattern):
        cover = minimum_zero_cost_cover(paper_pattern, 1).cover
        program = generate_address_code(paper_pattern, cover, AguSpec(3, 1))
        assert len(program.prologue) == cover.n_paths
        assert all(isinstance(instr, PointTo)
                   for instr in program.prologue)
        assert program.prologue_cost == cover.n_paths

    def test_zero_cost_cover_emits_no_overhead(self, paper_pattern):
        cover = minimum_zero_cost_cover(paper_pattern, 1).cover
        program = generate_address_code(paper_pattern, cover, AguSpec(3, 1))
        assert program.overhead_per_iteration == 0
        assert all(isinstance(instr, Use) for instr in program.body)

    def test_overhead_equals_model_cost(self, rng):
        for _ in range(25):
            offsets = random_offsets(rng, rng.randint(2, 12))
            pattern = pattern_from_offsets(offsets)
            k = rng.randint(1, 3)
            cover = minimum_zero_cost_cover(pattern, 1).cover
            merged = best_pair_merge(cover, k, pattern, 1)
            program = generate_address_code(pattern, merged.cover,
                                            AguSpec(k, 1))
            assert program.overhead_per_iteration == \
                cover_cost(merged.cover, pattern, 1)

    def test_cross_array_transition_uses_pointto(self):
        pattern = (LoopBuilder().read("x", 0).read("y", 0)
                   .build_pattern())
        cover = PathCover.from_lists([[0, 1]], 2)
        program = generate_address_code(pattern, cover, AguSpec(1, 1))
        kinds = [type(instr) for instr in program.body]
        assert kinds == [Use, PointTo, Use, PointTo]

    def test_long_jump_uses_modify(self):
        pattern = pattern_from_offsets([0, 5, 1])
        cover = PathCover.from_lists([[0, 1, 2]], 3)
        program = generate_address_code(pattern, cover, AguSpec(1, 1))
        modifies = [instr for instr in program.body
                    if isinstance(instr, Modify)]
        # 0->5 (+5) and 5->1 (-4) are explicit; wrap 1 -> 0+1 is free.
        assert [instr.delta for instr in modifies] == [5, -4]

    def test_wrap_retarget_absorbs_loop_step(self):
        pattern = (LoopBuilder(step=2).read("x", 0).read("y", 0)
                   .build_pattern())
        cover = PathCover.from_lists([[0, 1]], 2)
        program = generate_address_code(pattern, cover, AguSpec(1, 1))
        wrap_pointto = program.body[-1]
        assert isinstance(wrap_pointto, PointTo)
        assert wrap_pointto.array == "x"
        # Evaluated at the current i, must hit x[i+2] = next iteration.
        assert wrap_pointto.offset == 2


class TestValidation:
    def test_too_many_paths_rejected(self, paper_pattern):
        cover = PathCover.finest(7)
        with pytest.raises(CodegenError, match="only"):
            generate_address_code(paper_pattern, cover, AguSpec(2, 1))

    def test_mismatched_cover_rejected(self, paper_pattern):
        with pytest.raises(CodegenError):
            generate_address_code(paper_pattern, PathCover.finest(3),
                                  AguSpec(8, 1))


class TestBaseline:
    def test_baseline_overhead_is_n(self, paper_pattern):
        program = generate_unoptimized_code(paper_pattern, AguSpec(1, 1))
        assert program.overhead_per_iteration == len(paper_pattern)

    def test_baseline_empty_pattern(self):
        program = generate_unoptimized_code(pattern_from_offsets([]),
                                            AguSpec(1, 1))
        assert program.overhead_per_iteration == 0


class TestListing:
    def test_listing_contains_key_lines(self, paper_pattern):
        cover = minimum_zero_cost_cover(paper_pattern, 1).cover
        merged = best_pair_merge(cover, 2, paper_pattern, 1)
        program = generate_address_code(paper_pattern, merged.cover,
                                        AguSpec(2, 1))
        text = program_listing(program, title="example")
        assert "; example" in text
        assert "prologue" in text
        assert "USE" in text
        assert "AR0" in text and "AR1" in text

    def test_listing_rejects_a_body_out_of_codegen_order(self,
                                                         paper_pattern):
        cover = minimum_zero_cost_cover(paper_pattern, 1).cover
        program = generate_address_code(paper_pattern, cover,
                                        AguSpec(cover.n_paths, 1))
        # A retargeting instruction must follow the Use of its register.
        stray = replace(program, body=(Modify(0, 1),) + program.body)
        with pytest.raises(CodegenError, match="does not retarget"):
            program_listing(stray)

    def test_listing_rejects_a_baseline_out_of_order(self, paper_pattern):
        program = generate_unoptimized_code(paper_pattern, AguSpec(1, 1))
        assert program.baseline
        swapped = replace(program, body=program.body[1::-1]
                          + program.body[2:])
        with pytest.raises(CodegenError, match="baseline body pair"):
            program_listing(swapped)
