"""Human-readable assembly listing of a generated address program."""

from __future__ import annotations

from collections.abc import Iterator

from repro.agu.codegen import AddressProgram
from repro.agu.isa import LoadMr, Modify, PointTo, Use
from repro.errors import CodegenError


def program_listing(program: AddressProgram, title: str | None = None) -> str:
    """Pseudo-assembly listing with per-instruction comments.

    ``Use`` lines show the folded post-modify operand (free); ``ADAR``/
    ``SBAR``/``LDAR`` lines are the unit-cost computations the paper
    counts.  The comments name the accesses (``a_3``; ``a_1'`` is
    ``a_1`` of the next iteration) and are derived here, from the
    program's pattern and cover, so code generation never formats
    text nobody reads.
    """
    pattern = program.pattern
    lines = [f"; AGU: {program.spec}",
             f"; registers used: {program.n_registers_used}, "
             f"unit-cost instructions/iteration: "
             f"{program.overhead_per_iteration}",
             "; --- prologue ---"]
    paths = program.cover.paths
    for instruction in program.prologue:
        if isinstance(instruction, LoadMr):
            comment = "MR extension preload"
        elif isinstance(instruction, PointTo):
            first = paths[instruction.register].first
            comment = f"{pattern.label(first)} of first iteration"
        else:
            raise CodegenError(f"prologue instruction {instruction} is "
                               f"neither an LDMR nor an LDAR")
        lines.append(_format(instruction, comment))

    lines.append(f"; --- loop body (per iteration over "
                 f"{pattern.loop_var}) ---")
    comments = (_baseline_comments(program) if program.baseline
                else _body_comments(program))
    for instruction, comment in zip(program.body, comments, strict=True):
        lines.append(_format(instruction, comment))
    return titled("\n".join(lines) + "\n", title)


def titled(listing: str, title: str | None) -> str:
    """``listing`` under a ``; title`` first line, if ``title``."""
    return f"; {title}\n{listing}" if title else listing


def _body_comments(program: AddressProgram) -> Iterator[str]:
    """Each ``Use`` names its access and the access its register moves
    to next; the ``Modify`` or ``PointTo`` after it names that move."""
    pattern = program.pattern
    next_of = program.cover.successors()
    register = then = None
    for instruction in program.body:
        if isinstance(instruction, Use):
            register = instruction.register
            position = instruction.position
            target = next_of[position]
            then = pattern.label(target) + ("'" if target <= position
                                            else "")
            yield (f"{pattern.label(position)}: {pattern[position]}"
                   f"  then -> {then}")
        elif (isinstance(instruction, (Modify, PointTo))
              and instruction.register == register):
            yield (f"-> {then}" if isinstance(instruction, Modify)
                   else f"-> {then} (cross-array)")
        else:
            raise CodegenError(f"body instruction {instruction} does not "
                               f"retarget the register of the Use "
                               f"before it")


def _baseline_comments(program: AddressProgram) -> Iterator[str]:
    """Each ``PointTo`` addresses the ``Use`` right after it."""
    pattern = program.pattern
    body = program.body
    for point, use in zip(body[::2], body[1::2]):
        if not (isinstance(point, PointTo) and isinstance(use, Use)
                and point.register == use.register):
            raise CodegenError(f"baseline body pair {point}, {use} is not "
                               f"a PointTo and the Use it addresses")
        label = pattern.label(use.position)
        yield f"{label} address"
        yield f"{label}: {pattern[use.position]}"


def _format(instruction, comment: str) -> str:
    return f"{'    ' + str(instruction):<36}; {comment}"
