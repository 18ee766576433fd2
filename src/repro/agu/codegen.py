"""Address code generation: from an allocation to an AGU program.

Given an access pattern and a path cover (one path per address
register), emit:

* a **prologue** pointing every register at its path's first access for
  the loop's first iteration, and
* a **loop body template** with one :class:`~repro.agu.isa.Use` per
  access in program order, each followed -- when the next transition of
  that register is not free -- by the explicit
  :class:`~repro.agu.isa.Modify`/:class:`~repro.agu.isa.PointTo` that
  unit-cost transitions require.

After its last access of the iteration a register is retargeted at its
*first* access of the next iteration (the wrap-around transition), so
the body is iteration-invariant and the program's per-iteration
overhead is a static count -- exactly the steady-state cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agu.isa import AddressInstruction, LoadMr, Modify, PointTo, Use
from repro.agu.model import AguSpec
from repro.errors import CodegenError
from repro.graph.distance import intra_distance, wrap_distance
from repro.ir.layout import MemoryLayout
from repro.ir.types import AccessPattern
from repro.merging.cost import CostModel, cover_cost
from repro.pathcover.paths import PathCover


@dataclass(frozen=True)
class AddressProgram:
    """A generated address program plus its static accounting.

    ``overhead_per_iteration`` counts the unit-cost instructions in the
    body; by construction it equals the allocation's steady-state cost,
    and the simulator re-verifies that dynamically.

    The instructions carry no text: the listing derives each comment
    from the pattern and cover, and relies on this layout, which it
    checks as it renders.  The prologue holds the ``LoadMr`` preloads,
    then one ``PointTo`` per path (register ``r`` at ``cover.paths[r]``'s
    first access).  The body holds one ``Use`` per access in program
    order; a ``Modify`` or ``PointTo`` in it retargets the register of
    the ``Use`` right before it.  In the ``baseline`` program instead,
    each ``Use`` is right after the ``PointTo`` that addresses it.
    """

    spec: AguSpec
    pattern: AccessPattern
    cover: PathCover
    prologue: tuple[AddressInstruction, ...]
    body: tuple[AddressInstruction, ...]
    #: MR extension: the constants preloaded into modify registers
    #: (``modify_values[j]`` lives in ``MRj``).  Empty = paper's model.
    modify_values: tuple[int, ...] = ()
    #: True for :func:`generate_unoptimized_code`'s program.
    baseline: bool = False

    @property
    def overhead_per_iteration(self) -> int:
        """Unit-cost address instructions executed per loop iteration."""
        return sum(instruction.cost for instruction in self.body)

    @property
    def prologue_cost(self) -> int:
        """One-time setup instructions before the loop."""
        return sum(instruction.cost for instruction in self.prologue)

    @property
    def n_registers_used(self) -> int:
        """Distinct address registers the program drives (cover paths).
        """
        return self.cover.n_paths


def generate_address_code(pattern: AccessPattern, cover: PathCover,
                          spec: AguSpec,
                          modify_values: tuple[int, ...] = (),
                          layout: "MemoryLayout | None" = None,
                          ) -> AddressProgram:
    """Emit the address program realizing ``cover`` on ``spec``.

    ``modify_values`` (MR extension) lists constants preloaded into the
    AGU's modify registers; transitions by exactly those deltas fold
    into the access for free.

    ``layout`` (array-layout extension) enables layout-aware codegen:
    cross-array transitions whose concrete distance is constant are
    emitted as folded post-modifies or ``Modify`` instructions instead
    of unit-cost re-loads.  The program must then be simulated against
    the *same* layout (the simulator verifies this).

    Raises
    ------
    CodegenError
        If the cover needs more registers than the AGU has, does not
        match the pattern, or ``modify_values`` exceed the AGU's modify
        registers / repeat values.  (Word-addressing -- element size 1
        -- is validated by the simulator against its memory layout; the
        cost model counts element distances.)
    """
    if cover.n_accesses != len(pattern):
        raise CodegenError(
            f"cover is over {cover.n_accesses} accesses but the pattern "
            f"has {len(pattern)}")
    if cover.n_paths > spec.n_registers:
        raise CodegenError(
            f"allocation uses {cover.n_paths} paths but {spec} has only "
            f"{spec.n_registers} address registers")
    if len(modify_values) > spec.n_modify_registers:
        raise CodegenError(
            f"{len(modify_values)} modify values but {spec} has only "
            f"{spec.n_modify_registers} modify registers")
    if len(set(modify_values)) != len(modify_values):
        raise CodegenError(
            f"duplicate modify values {modify_values}")
    mr_index_of = {value: index
                   for index, value in enumerate(modify_values)}

    register_of = cover.assignment()
    next_of = cover.successors()

    prologue: list[AddressInstruction] = []
    for index, value in enumerate(modify_values):
        prologue.append(LoadMr(index, value))
    for register, path in enumerate(cover.paths):
        first = pattern[path.first]
        prologue.append(PointTo(register, first.array, first.coefficient,
                                first.offset))

    body: list[AddressInstruction] = []
    for position, access in enumerate(pattern):
        register = register_of[position]
        target = pattern[next_of[position]]
        is_last = next_of[position] <= position
        if not is_last:
            delta = intra_distance(access, target)
            # The target is touched in the same iteration: point at its
            # address for the *current* loop value.
            retarget_offset = target.offset
        else:
            delta = wrap_distance(access, target, pattern.step)
            # The target is touched in the *next* iteration: evaluated
            # with the current loop value, its offset must absorb one
            # loop step.
            retarget_offset = target.offset + target.coefficient * pattern.step

        if delta is None and layout is not None:
            # Layout-aware mode: with concrete bases the cross-array
            # distance is constant whenever the coefficients agree.
            from repro.arraylayout.distance import (
                concrete_intra_distance,
                concrete_wrap_distance,
            )
            if not is_last:
                delta = concrete_intra_distance(access, target, layout)
            else:
                delta = concrete_wrap_distance(access, target,
                                               pattern.step, layout)

        if delta is not None and abs(delta) <= spec.modify_range:
            body.append(Use(register, position,
                            post_modify=delta if delta else None))
        elif delta is not None and delta in mr_index_of:
            body.append(Use(register, position,
                            post_modify_mr=mr_index_of[delta]))
        elif delta is not None:
            body.append(Use(register, position))
            body.append(Modify(register, delta))
        else:
            body.append(Use(register, position))
            body.append(PointTo(register, target.array, target.coefficient,
                                retarget_offset))

    program = AddressProgram(spec, pattern, cover, tuple(prologue),
                             tuple(body), tuple(modify_values))
    _check_static_cost(program, layout)
    return program


def generate_unoptimized_code(pattern: AccessPattern,
                              spec: AguSpec) -> AddressProgram:
    """The "regular C compiler" baseline: no auto-modify exploitation.

    One address register; every access is preceded by an explicit
    address computation (a :class:`~repro.agu.isa.PointTo`).  This is
    the reference point for the code-size/speed comparisons the paper
    cites from [1]: per-iteration addressing overhead equals ``N``.

    The program still runs and verifies on the simulator, so baseline
    and optimized numbers come from the same audited machinery.
    """
    if len(pattern) == 0:
        return AddressProgram(spec, pattern, PathCover((), 0), (), (),
                              baseline=True)
    # A single path covering everything (the register is re-pointed
    # before every access anyway, so the path structure is nominal).
    cover = PathCover.from_lists([range(len(pattern))], len(pattern))
    body: list[AddressInstruction] = []
    for position, access in enumerate(pattern):
        body.append(PointTo(0, access.array, access.coefficient,
                            access.offset))
        body.append(Use(0, position))
    return AddressProgram(spec, pattern, cover, (), tuple(body),
                          baseline=True)


def _check_static_cost(program: AddressProgram,
                       layout: "MemoryLayout | None" = None) -> None:
    """Codegen must agree with the cost model by construction."""
    modelled = cover_cost(program.cover, program.pattern,
                          program.spec.modify_range, CostModel.STEADY_STATE,
                          free_deltas=frozenset(program.modify_values),
                          layout=layout)
    emitted = program.overhead_per_iteration
    if modelled != emitted:
        raise CodegenError(
            f"internal inconsistency: cost model says {modelled} "
            f"unit-cost computations per iteration, codegen emitted "
            f"{emitted}")
