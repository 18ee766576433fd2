"""The full-replay AGU simulator, kept as a test-local oracle.

This is the simulator as it was before the audit became O(pattern): it
executes every declared iteration.  The differential tests compare
:func:`repro.agu.simulator.simulate` against it field for field, and
its error messages word for word.  Do not optimise it.
"""

from __future__ import annotations

from repro.agu.codegen import AddressProgram
from repro.agu.isa import LoadMr, Modify, PointTo, Use
from repro.agu.simulator import SimulationResult, TraceEntry
from repro.errors import SimulationError
from repro.ir.layout import MemoryLayout
from repro.ir.types import Loop


def reference_simulate(program: AddressProgram, loop: Loop,
                       layout: MemoryLayout,
                       n_iterations: int | None = None,
                       keep_trace: bool = False) -> SimulationResult:
    """Run ``program`` against ``loop``/``layout`` and verify it.

    Parameters
    ----------
    n_iterations:
        Number of iterations to execute; defaults to the loop's own
        count and must be supplied when the loop bound is symbolic.
    keep_trace:
        Record every access in :attr:`SimulationResult.trace`
        (memory-hungry for long runs; off by default).

    Raises
    ------
    SimulationError
        On any address mismatch, use of an unwritten register, or a
        layout whose accessed arrays are not word-addressed.
    """
    pattern = program.pattern
    if loop.pattern is not pattern and loop.pattern != pattern:
        raise SimulationError(
            "the loop's access pattern differs from the program's")
    for array in pattern.arrays():
        if layout.placement(array).decl.element_size != 1:
            raise SimulationError(
                f"array {array!r} has element size "
                f"{layout.placement(array).decl.element_size}; the AGU "
                f"model is word-addressed (element size 1)")

    values = loop.iteration_values(n_iterations)
    registers: dict[int, int] = {}
    modify_registers: dict[int, int] = {}
    trace: list[TraceEntry] = []

    def execute(instruction: LoadMr | Modify | PointTo | Use,
                loop_value: int, iteration: int) -> int:
        """Execute one instruction; returns its cost."""
        if isinstance(instruction, PointTo):
            registers[instruction.register] = instruction.resolve(
                layout, loop_value)
            return instruction.cost
        if isinstance(instruction, LoadMr):
            modify_registers[instruction.mr_index] = instruction.value
            return instruction.cost
        if isinstance(instruction, Modify):
            if instruction.register not in registers:
                raise SimulationError(
                    f"Modify of unwritten register AR{instruction.register}")
            registers[instruction.register] += instruction.delta
            return instruction.cost
        # Use: verify, then post-modify.
        if instruction.register not in registers:
            raise SimulationError(
                f"Use of unwritten register AR{instruction.register}")
        actual = registers[instruction.register]
        expected = layout.address_of(pattern[instruction.position],
                                     loop_value)
        if actual != expected:
            raise SimulationError(
                f"address mismatch at iteration {iteration} "
                f"({pattern.loop_var}={loop_value}), access "
                f"{pattern.label(instruction.position)} "
                f"({pattern[instruction.position]}): register "
                f"AR{instruction.register} holds {actual}, expected "
                f"{expected}")
        if keep_trace:
            trace.append(TraceEntry(iteration, loop_value,
                                    instruction.position,
                                    instruction.register, actual))
        if instruction.post_modify is not None:
            registers[instruction.register] += instruction.post_modify
        elif instruction.post_modify_mr is not None:
            if instruction.post_modify_mr not in modify_registers:
                raise SimulationError(
                    f"Use folds MR{instruction.post_modify_mr}, which was "
                    f"never loaded")
            registers[instruction.register] += \
                modify_registers[instruction.post_modify_mr]
        return instruction.cost

    prologue_cost = 0
    if values:
        for instruction in program.prologue:
            prologue_cost += execute(instruction, values[0], 0)

    loop_cost = 0
    verified = 0
    for iteration, loop_value in enumerate(values):
        for instruction in program.body:
            loop_cost += execute(instruction, loop_value, iteration)
            if isinstance(instruction, Use):
                verified += 1

    expected_static = program.overhead_per_iteration
    if values and loop_cost != expected_static * len(values):
        raise SimulationError(
            f"dynamic overhead {loop_cost} over {len(values)} iterations "
            f"disagrees with static per-iteration overhead "
            f"{expected_static}")

    return SimulationResult(
        n_iterations=len(values),
        loop_overhead_instructions=loop_cost,
        overhead_per_iteration=expected_static,
        prologue_instructions=prologue_cost,
        n_accesses_verified=verified,
        trace=tuple(trace),
    )
