"""Differential and mutation oracle for the O(pattern) simulator.

:func:`repro.agu.simulator.simulate` replays three iterations and
extrapolates; :func:`_reference_simulator.reference_simulate` replays
every one.  Their results must agree field for field (the trace aside,
which only a ``keep_trace`` run records), and on a corrupted program
both must raise :class:`~repro.errors.SimulationError` with the same
message.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from _reference_simulator import reference_simulate

from repro.agu.codegen import (
    AddressProgram,
    generate_address_code,
    generate_unoptimized_code,
)
from repro.agu.isa import LoadMr, Modify, PointTo, Use
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.core.pipeline import compile_kernel
from repro.errors import SimulationError
from repro.ir.expr import AffineExpr
from repro.ir.layout import MemoryLayout
from repro.ir.types import AccessPattern, ArrayAccess, ArrayDecl, Loop
from repro.modreg import allocate_with_modify_registers
from repro.pathcover.paths import PathCover
from repro.workloads.kernels import KERNELS

#: The library workload's spec grid, ``(registers, modify range)``.
SPECS = ((2, 1), (2, 2), (4, 1), (4, 2))

#: Explicit iteration counts around the three replayed iterations;
#: ``None`` runs the kernel's declared count.
COUNTS = (0, 1, 2, 3, 4, 17, None)


def outcome(simulator, program, loop, layout, **kwargs):
    """``("ok", result without trace)`` or ``("error", message)``."""
    try:
        result = simulator(program, loop, layout, **kwargs)
    except SimulationError as error:
        return ("error", str(error))
    return ("ok", dataclasses.replace(result, trace=()))


def assert_agree(program, loop, layout, **kwargs):
    """Fast and reference simulators give the same outcome."""
    fast = outcome(simulate, program, loop, layout, **kwargs)
    assert fast == outcome(reference_simulate, program, loop, layout,
                           **kwargs)
    return fast


@functools.lru_cache(maxsize=None)
def library_programs(name: str, registers: int, modify_range: int):
    """``(loop, [(label, program, layout)])`` for one library kernel:
    the optimized code, the array-layout extension's code, and the
    regular-compiler baseline."""
    kernel = KERNELS[name].kernel()
    spec = AguSpec(registers, modify_range)
    plain = compile_kernel(kernel, spec, run_simulation=False)
    laid_out = compile_kernel(kernel, spec, run_simulation=False,
                              optimize_array_layout=True)
    baseline = generate_unoptimized_code(kernel.pattern, spec)
    return kernel.loop, [("optimized", plain.program, plain.layout),
                         ("array-layout", laid_out.program,
                          laid_out.layout),
                         ("baseline", baseline, plain.layout)]


def mutants(program: AddressProgram):
    """Every single-instruction corruption of ``program``: each body
    post-modify, ``Modify`` delta and ``PointTo`` offset moved by one,
    each prologue entry dropped."""
    body = list(program.body)
    for index, instruction in enumerate(body):
        variants = []
        if isinstance(instruction, Use) \
                and instruction.post_modify is not None:
            variants = [dataclasses.replace(
                instruction, post_modify=instruction.post_modify + d)
                for d in (1, -1)]
        elif isinstance(instruction, Modify):
            variants = [Modify(instruction.register, instruction.delta + d)
                        for d in (1, -1) if instruction.delta + d]
        elif isinstance(instruction, PointTo):
            variants = [dataclasses.replace(
                instruction, offset=instruction.offset + d)
                for d in (1, -1)]
        for variant in variants:
            corrupted = body.copy()
            corrupted[index] = variant
            yield dataclasses.replace(program, body=tuple(corrupted))
    prologue = list(program.prologue)
    for index in range(len(prologue)):
        yield dataclasses.replace(
            program, prologue=tuple(prologue[:index] + prologue[index + 1:]))


class TestLibraryDifferential:
    """Every library kernel x spec x count, three code generators."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_fast_equals_full_replay(self, name):
        for registers, modify_range in SPECS:
            loop, programs = library_programs(name, registers,
                                              modify_range)
            for _label, program, layout in programs:
                for count in COUNTS:
                    kind, result = assert_agree(program, loop, layout,
                                                n_iterations=count)
                    assert kind == "ok"
                    expected = loop.n_iterations if count is None \
                        else count
                    assert result.n_iterations == expected

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_mutant_fails_with_the_same_message(self, name):
        kinds = set()
        for registers, modify_range in SPECS:
            loop, programs = library_programs(name, registers,
                                              modify_range)
            for _label, program, layout in programs:
                for mutant in mutants(program):
                    kind, message = assert_agree(mutant, loop, layout)
                    assert kind == "error", message
                    kinds.add(message.split(" ")[0])
        assert kinds <= {"address", "Use", "Modify"}

    def test_keep_trace_replays_every_iteration(self):
        loop, programs = library_programs("fir8", 2, 1)
        _label, program, layout = programs[0]
        fast = simulate(program, loop, layout, keep_trace=True)
        full = reference_simulate(program, loop, layout, keep_trace=True)
        assert fast == full
        assert len(fast.trace) == fast.n_accesses_verified
        assert fast.trace[-1].iteration == loop.n_iterations - 1


# ----------------------------------------------------------------------
# Random programs: mixed arrays, coefficient-2 indices, negative steps
# ----------------------------------------------------------------------
@st.composite
def random_loops(draw):
    """A random pattern, a random valid cover of it, and a loop."""
    n = draw(st.integers(1, 8))
    accesses = tuple(
        ArrayAccess(draw(st.sampled_from("AB")),
                    AffineExpr(draw(st.sampled_from((1, 2))),
                               draw(st.integers(-6, 6))))
        for _ in range(n))
    pattern = AccessPattern(accesses,
                            step=draw(st.sampled_from((-2, -1, 1, 2, 3))))
    n_groups = draw(st.integers(1, n))
    groups: dict[int, list[int]] = {}
    for position in range(n):
        groups.setdefault(draw(st.integers(0, n_groups - 1)),
                          []).append(position)
    cover = PathCover.from_lists(groups.values(), n)
    loop = Loop(pattern, start=draw(st.integers(-20, 20)),
                n_iterations=draw(st.one_of(st.integers(0, 5),
                                            st.integers(6, 40))))
    return loop, cover, draw(st.integers(0, 2))


def two_array_layout(modify_range: int) -> MemoryLayout:
    return MemoryLayout.contiguous(
        [ArrayDecl("A", length=64), ArrayDecl("B", length=64)],
        origin=300, gap=modify_range + 1)


class TestRandomDifferential:
    @settings(max_examples=60, deadline=None)
    @given(random_loops())
    def test_random_covers_agree(self, instance):
        loop, cover, modify_range = instance
        program = generate_address_code(
            loop.pattern, cover, AguSpec(cover.n_paths, modify_range))
        layout = two_array_layout(modify_range)
        assert assert_agree(program, loop, layout)[0] == "ok"
        for mutant in mutants(program):
            assert_agree(mutant, loop, layout)

    @settings(max_examples=40, deadline=None)
    @given(random_loops(), st.integers(1, 3), st.integers(1, 2))
    def test_modify_register_programs_agree(self, instance, registers,
                                            n_mrs):
        loop, _cover, modify_range = instance
        allocation = allocate_with_modify_registers(
            loop.pattern, AguSpec(registers, modify_range, "mr",
                                  n_modify_registers=n_mrs))
        program = generate_address_code(
            loop.pattern, allocation.cover, allocation.spec,
            modify_values=allocation.modify_values)
        layout = two_array_layout(modify_range)
        assert assert_agree(program, loop, layout)[0] == "ok"
        for mutant in mutants(program):
            assert_agree(mutant, loop, layout)

    @settings(max_examples=40, deadline=None)
    @given(random_loops())
    def test_baseline_programs_agree(self, instance):
        loop, _cover, modify_range = instance
        program = generate_unoptimized_code(loop.pattern,
                                            AguSpec(1, modify_range))
        assert assert_agree(program, loop,
                            two_array_layout(modify_range))[0] == "ok"


class TestModifyRegisterMutants:
    def test_unloaded_modify_register_fails_alike(self):
        pattern = AccessPattern(tuple(
            ArrayAccess("A", AffineExpr(1, offset))
            for offset in (0, 10, 20, 0, 10, 20)))
        allocation = allocate_with_modify_registers(
            pattern, AguSpec(1, 1, "mr", n_modify_registers=2))
        program = generate_address_code(
            pattern, allocation.cover, allocation.spec,
            modify_values=allocation.modify_values)
        assert any(isinstance(entry, LoadMr) for entry in program.prologue)
        loop = Loop(pattern, start=0, n_iterations=12)
        layout = MemoryLayout.contiguous([ArrayDecl("A", length=64)])
        messages = [assert_agree(mutant, loop, layout)
                    for mutant in mutants(program)]
        assert all(kind == "error" for kind, _ in messages)
        assert any("never loaded" in message for _, message in messages)


class TestProofBoundary:
    def test_first_mismatch_at_the_third_iteration_is_caught(self):
        """Iteration 0 checks the prologue state, and iterations 1 and
        2 pin the steady-state line: a register re-pointed with the
        wrong slope at the end of the body can agree at iteration 1
        and fail first at iteration 2."""
        pattern = AccessPattern((ArrayAccess("A", AffineExpr(1, 0)),))
        program = generate_address_code(
            pattern, PathCover.from_lists([[0]], 1), AguSpec(1, 1))
        # A[2*i+1] after iteration 0 is the right address (A[1]) for
        # iteration 1, and the wrong one (A[3], not A[2]) after that.
        skewed = dataclasses.replace(
            program, prologue=(PointTo(0, "A", 1, 0),),
            body=(Use(0, 0), PointTo(0, "A", 2, 1)))
        loop = Loop(pattern, start=0, n_iterations=1000)
        layout = MemoryLayout.contiguous([ArrayDecl("A", length=64)])
        kind, message = assert_agree(skewed, loop, layout)
        assert kind == "error"
        assert message.startswith("address mismatch at iteration 2 ")
        for count in (0, 1, 2):
            assert assert_agree(skewed, loop, layout,
                                n_iterations=count)[0] == "ok"


class TestTripCountIndependence:
    def test_billion_trip_kernel_compiles_in_under_a_second(self):
        source = """
        int x[64], y[64];
        for (i = 0; i < 1000000000; i++) {
            y[i] = x[i+1] + x[i] + x[i-1];
        }
        """
        started = time.perf_counter()
        artifacts = compile_kernel(source, AguSpec(2, 1))
        elapsed = time.perf_counter() - started
        simulation = artifacts.simulation
        assert simulation.n_iterations == 10 ** 9
        assert simulation.n_accesses_verified == 4 * 10 ** 9
        assert simulation.loop_overhead_instructions == \
            10 ** 9 * simulation.overhead_per_iteration
        assert elapsed < 1.0
