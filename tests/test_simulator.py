"""Unit tests for the AGU simulator (the cost-model auditor)."""

import dataclasses

import pytest

from repro.agu.codegen import (
    generate_address_code,
    generate_unoptimized_code,
)
from repro.agu.isa import Modify, Use
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.errors import IrError, SimulationError
from repro.ir.builder import loop_from_offsets, pattern_from_offsets
from repro.ir.layout import MemoryLayout
from repro.ir.types import ArrayDecl, Loop
from repro.merging.greedy import best_pair_merge
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover


def build_program(pattern, k, m):
    cover = minimum_zero_cost_cover(pattern, m).cover
    merged = best_pair_merge(cover, k, pattern, m)
    return generate_address_code(pattern, merged.cover, AguSpec(k, m))


@pytest.fixture
def layout():
    return MemoryLayout.contiguous([ArrayDecl("A", length=64)])


class TestVerifiedRuns:
    def test_paper_example(self, paper_loop, layout):
        program = build_program(paper_loop.pattern, 2, 1)
        result = simulate(program, paper_loop, layout)
        assert result.n_iterations == 30
        assert result.n_accesses_verified == 30 * 7
        assert result.overhead_per_iteration == 2
        assert result.loop_overhead_instructions == 60

    def test_zero_iterations(self, layout):
        loop = loop_from_offsets([0, 1], start=0, n_iterations=0)
        program = build_program(loop.pattern, 2, 1)
        result = simulate(program, loop, layout)
        assert result.n_accesses_verified == 0

    def test_negative_iterations_rejected(self, layout):
        loop = loop_from_offsets([0, 1], start=0, n_iterations=4)
        program = build_program(loop.pattern, 2, 1)
        with pytest.raises(IrError, match="iteration count"):
            simulate(program, loop, layout, n_iterations=-1)

    def test_trace_recording(self, layout):
        loop = loop_from_offsets([0, 1], start=3, n_iterations=2)
        program = build_program(loop.pattern, 1, 1)
        result = simulate(program, loop, layout, keep_trace=True)
        assert len(result.trace) == 4
        first = result.trace[0]
        assert (first.iteration, first.loop_value) == (0, 3)
        assert first.address == layout.address_of(loop.pattern[0], 3)

    def test_trace_off_by_default(self, paper_loop, layout):
        program = build_program(paper_loop.pattern, 2, 1)
        assert simulate(program, paper_loop, layout).trace == ()

    def test_symbolic_loop_needs_count(self, layout):
        pattern = pattern_from_offsets([0, 1])
        loop = Loop(pattern, bound_symbol="N")
        program = build_program(pattern, 1, 1)
        result = simulate(program, loop, layout, n_iterations=5)
        assert result.n_iterations == 5

    def test_baseline_program_verifies(self, paper_loop, layout):
        program = generate_unoptimized_code(paper_loop.pattern,
                                            AguSpec(1, 1))
        result = simulate(program, paper_loop, layout)
        assert result.overhead_per_iteration == 7

    def test_negative_step_loop(self):
        pattern = pattern_from_offsets([0, 1], step=-1)
        loop = Loop(pattern, start=40, n_iterations=10)
        layout = MemoryLayout.contiguous([ArrayDecl("A", length=64)])
        program = build_program(pattern, 1, 1)
        result = simulate(program, loop, layout)
        assert result.n_accesses_verified == 20


class TestErrorDetection:
    def test_corrupted_post_modify_detected(self, paper_loop, layout):
        program = build_program(paper_loop.pattern, 2, 1)
        body = list(program.body)
        for index, instr in enumerate(body):
            if isinstance(instr, Use) and instr.post_modify is not None:
                body[index] = dataclasses.replace(
                    instr, post_modify=instr.post_modify + 1)
                break
        corrupted = dataclasses.replace(program, body=tuple(body))
        with pytest.raises(SimulationError, match="address mismatch"):
            simulate(corrupted, paper_loop, layout)

    def test_corrupted_modify_detected(self, paper_loop, layout):
        program = build_program(paper_loop.pattern, 1, 1)
        body = list(program.body)
        for index, instr in enumerate(body):
            if isinstance(instr, Modify):
                body[index] = Modify(instr.register, instr.delta + 2)
                break
        corrupted = dataclasses.replace(program, body=tuple(body))
        with pytest.raises(SimulationError, match="address mismatch"):
            simulate(corrupted, paper_loop, layout)

    def test_unwritten_register_detected(self, paper_loop, layout):
        program = build_program(paper_loop.pattern, 2, 1)
        stripped = dataclasses.replace(program, prologue=())
        with pytest.raises(SimulationError, match="unwritten"):
            simulate(stripped, paper_loop, layout)

    def test_wrong_pattern_rejected(self, paper_loop, layout):
        other = pattern_from_offsets([9, 9])
        program = build_program(other, 1, 1)
        with pytest.raises(SimulationError, match="differs"):
            simulate(program, paper_loop, layout)

    def test_non_word_addressed_array_rejected(self, paper_loop):
        program = build_program(paper_loop.pattern, 2, 1)
        wide = MemoryLayout.contiguous(
            [ArrayDecl("A", element_size=2, length=64)])
        with pytest.raises(SimulationError, match="word-addressed"):
            simulate(program, paper_loop, wide)

    def test_mismatch_message_names_the_access(self, paper_loop, layout):
        program = build_program(paper_loop.pattern, 2, 1)
        body = list(program.body)
        for index, instr in enumerate(body):
            if isinstance(instr, Use) and instr.post_modify is not None:
                body[index] = dataclasses.replace(
                    instr, post_modify=instr.post_modify - 1)
                break
        corrupted = dataclasses.replace(program, body=tuple(body))
        with pytest.raises(SimulationError, match=r"a_\d"):
            simulate(corrupted, paper_loop, layout)
