"""AGU simulator: execute an address program and audit the cost model.

The simulator runs the generated program over a concrete memory layout
and checks, access by access, that the address register handed to each
:class:`~repro.agu.isa.Use` holds exactly the address the source
program requires.  It also counts the unit-cost instructions actually
executed, which must equal the static per-iteration overhead -- turning
the paper's cost model from an assumption into a verified property.

The audit costs O(pattern), not O(trip count): it replays the prologue
and the first :data:`PROOF_ITERATIONS` iterations, which proves every
later iteration correct (see :func:`simulate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agu.codegen import AddressProgram
from repro.agu.isa import LoadMr, Modify, PointTo, Use
from repro.errors import SimulationError
from repro.ir.layout import MemoryLayout
from repro.ir.types import Loop

#: Iterations replayed to prove a loop of any length: iteration 0
#: (which starts from the prologue state) plus the two that pin the
#: steady-state affine line.
PROOF_ITERATIONS = 3


@dataclass(frozen=True)
class TraceEntry:
    """One simulated memory access."""

    iteration: int
    loop_value: int
    position: int
    register: int
    address: int


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a verified simulation run."""

    n_iterations: int
    #: Unit-cost address instructions executed inside the loop, total.
    loop_overhead_instructions: int
    #: Unit-cost instructions per iteration (constant; the body is
    #: iteration-invariant).
    overhead_per_iteration: int
    #: One-time prologue instructions.
    prologue_instructions: int
    #: Accesses proven correct (n × uses).
    n_accesses_verified: int
    trace: tuple[TraceEntry, ...] = field(repr=False, default=())

    @property
    def total_address_instructions(self) -> int:
        """Unit-cost address instructions over prologue plus loop body.
        """
        return self.prologue_instructions + self.loop_overhead_instructions


def simulate(program: AddressProgram, loop: Loop, layout: MemoryLayout,
             n_iterations: int | None = None,
             keep_trace: bool = False) -> SimulationResult:
    """Run ``program`` against ``loop``/``layout`` and verify it.

    Only the prologue and iterations ``k = 0, 1, 2`` (fewer for a
    shorter loop) are executed; the counts are extrapolated to all
    ``n`` iterations.  That is an exact proof, not a sample:

    * The body is straight-line.  Each instruction either adds a
      constant to a register (``Modify``, an immediate or MR
      post-modify) or sets it to a value affine in the loop value
      (``PointTo``).  So every register value a ``Use`` reads at
      iteration ``k >= 1`` is affine in ``k``.  Only iteration 0 may
      see prologue state that lies off that line.
    * The address the access requires,
      :meth:`~repro.ir.layout.MemoryLayout.address_of`, is affine in
      ``k`` as well.
    * Two affine functions that agree at ``k = 1`` and ``k = 2`` agree
      for every ``k >= 1``; iteration 0 is checked on its own.  A
      register or MR left unwritten at iteration ``k`` is unwritten at
      the same instruction of iteration 0, because registers are
      only ever written, never cleared.

    The replayed prefix is exactly the start of a full replay, so any
    mismatch or unwritten-register error a full replay would raise
    first is raised here, with the same message, and the result is
    identical.  Every iteration runs the same instructions, hence
    costs the same, so the dynamic-equals-static overhead check on the
    replayed iterations holds for all of them.

    Parameters
    ----------
    n_iterations:
        Number of iterations to verify; defaults to the loop's own
        count and must be supplied when the loop bound is symbolic.
    keep_trace:
        Record every access in :attr:`SimulationResult.trace`.  This
        replays every iteration (memory-hungry for long runs; off by
        default).

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

    iterations = range(loop.iteration_count(n_iterations))
    n = len(iterations)
    replayed = iterations if keep_trace else iterations[:PROOF_ITERATIONS]
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
    if n:
        for instruction in program.prologue:
            prologue_cost += execute(instruction, loop.start, 0)

    replayed_cost = 0
    for iteration in replayed:
        loop_value = loop.start + iteration * loop.step
        for instruction in program.body:
            replayed_cost += execute(instruction, loop_value, iteration)
    # Every iteration costs the same, so the replayed cost divides.
    loop_cost = replayed_cost // len(replayed) * n if n else 0

    expected_static = program.overhead_per_iteration
    if n and loop_cost != expected_static * n:
        raise SimulationError(
            f"dynamic overhead {loop_cost} over {n} iterations "
            f"disagrees with static per-iteration overhead "
            f"{expected_static}")

    return SimulationResult(
        n_iterations=n,
        loop_overhead_instructions=loop_cost,
        overhead_per_iteration=expected_static,
        prologue_instructions=prologue_cost,
        n_accesses_verified=n * sum(isinstance(instruction, Use)
                                    for instruction in program.body),
        trace=tuple(trace),
    )
