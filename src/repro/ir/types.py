"""Core IR datatypes: arrays, accesses, access patterns, loops, kernels.

The central object is the :class:`AccessPattern`: the ordered sequence of
array accesses performed by one iteration of a loop, together with the
loop step.  This is exactly the input of the paper's problem definition
(section 2): ``N`` accesses ``a_1 .. a_N``, each indexing an array at a
constant offset from the loop variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import IrError
from repro.ir.expr import AffineExpr


@dataclass(frozen=True)
class ArrayDecl:
    """Declaration of a one-dimensional data array.

    ``element_size`` is measured in address units; DSP data memories are
    word-addressed, so the default of 1 matches the paper's model of a
    "linear arrangement of array elements in a contiguous address space".
    """

    name: str
    element_size: int = 1
    length: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise IrError(f"invalid array name {self.name!r}")
        if self.element_size < 1:
            raise IrError(
                f"array {self.name!r}: element_size must be >= 1, "
                f"got {self.element_size}")
        if self.length is not None and self.length < 0:
            raise IrError(
                f"array {self.name!r}: length must be >= 0, "
                f"got {self.length}")


@dataclass(frozen=True)
class ArrayAccess:
    """A single array access ``array[index]`` inside the loop body.

    ``index`` is an affine expression in the loop variable.  For the
    paper's model the coefficient is 1 and only the constant ``offset``
    varies between accesses.
    """

    array: str
    index: AffineExpr
    is_write: bool = False
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.array or not self.array.isidentifier():
            raise IrError(f"invalid array name {self.array!r}")
        if not isinstance(self.index, AffineExpr):
            raise IrError(
                f"index of access to {self.array!r} must be an AffineExpr, "
                f"got {self.index!r}")

    @property
    def offset(self) -> int:
        """Constant part ``d`` of the index ``c*i + d``."""
        return self.index.offset

    @property
    def coefficient(self) -> int:
        """Loop-variable coefficient ``c`` of the index ``c*i + d``."""
        return self.index.coefficient

    @property
    def group_key(self) -> tuple[str, int]:
        """Key identifying accesses with loop-invariant mutual distance.

        Two accesses of one :class:`AccessPattern` have a
        compile-time-constant address distance iff they touch the same
        array with the same index coefficient: the pattern guarantees
        that every non-constant index uses its one loop variable.
        """
        return (self.array, self.coefficient)

    def __str__(self) -> str:
        mark = "=" if self.is_write else ""
        return f"{self.array}[{self.index}]{mark}"


@dataclass(frozen=True)
class ScalarUse:
    """A use of a scalar variable in the loop body.

    Scalar uses are not part of the array-addressing problem; they feed
    the complementary offset-assignment substrate (:mod:`repro.offset`).
    """

    name: str
    is_write: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise IrError(f"invalid scalar name {self.name!r}")


@dataclass(frozen=True)
class AccessPattern:
    """The ordered array-access sequence of one loop iteration.

    Parameters
    ----------
    accesses:
        Accesses in program order (``a_1 .. a_N`` in the paper).
    step:
        Loop-variable increment per iteration (``S``); the wrap-around
        address distance of a register from iteration ``t`` to ``t+1``
        depends on it.
    loop_var:
        Name of the loop variable.  Every access with a non-zero index
        coefficient indexes with it, so the distance rule needs only
        the array and the coefficient (:attr:`ArrayAccess.group_key`);
        a constant index may carry any variable name.
    """

    accesses: tuple[ArrayAccess, ...]
    step: int = 1
    loop_var: str = "i"

    def __post_init__(self) -> None:
        if not isinstance(self.accesses, tuple):
            object.__setattr__(self, "accesses", tuple(self.accesses))
        if self.step == 0:
            raise IrError("loop step must be non-zero")
        loop_var = self.loop_var
        for position, access in enumerate(self.accesses):
            if not isinstance(access, ArrayAccess):
                raise IrError(
                    f"pattern element {position} is not an ArrayAccess: "
                    f"{access!r}")
            index = access.index
            if index.coefficient and index.var != loop_var:
                raise IrError(
                    f"pattern element {position} ({access}) indexes with "
                    f"{index.var!r}, not the loop variable {loop_var!r}")

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[ArrayAccess]:
        return iter(self.accesses)

    def __getitem__(self, position: int) -> ArrayAccess:
        return self.accesses[position]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def label(self, position: int) -> str:
        """Paper-style label of the access at ``position`` (0-based).

        Returns the access's explicit label when present, else ``a_k``
        with ``k = position + 1`` as in the paper's example.
        """
        access = self.accesses[position]
        return access.label if access.label is not None else f"a_{position + 1}"

    def offsets(self) -> tuple[int, ...]:
        """Constant index offsets of all accesses, in program order."""
        return tuple(access.offset for access in self.accesses)

    def arrays(self) -> tuple[str, ...]:
        """Distinct array names in order of first appearance."""
        seen: dict[str, None] = {}
        for access in self.accesses:
            seen.setdefault(access.array, None)
        return tuple(seen)

    def group_keys(self) -> tuple[tuple[str, int], ...]:
        """Distinct ``(array, coefficient)`` groups, in first-use order."""
        seen: dict[tuple[str, int], None] = {}
        for access in self.accesses:
            seen.setdefault(access.group_key, None)
        return tuple(seen)

    def positions_in_group(self, key: tuple[str, int]) -> tuple[int, ...]:
        """Positions of all accesses belonging to one distance group."""
        return tuple(position for position, access in enumerate(self.accesses)
                     if access.group_key == key)

    def subsequence(self, positions: Sequence[int]) -> tuple[ArrayAccess, ...]:
        """The accesses at the given positions, in the given order."""
        return tuple(self.accesses[position] for position in positions)

    def __str__(self) -> str:
        body = ", ".join(
            f"{self.label(position)}:{access}"
            for position, access in enumerate(self.accesses))
        return f"<{body}; step={self.step}>"


@dataclass(frozen=True)
class Loop:
    """A counted loop executing an :class:`AccessPattern` each iteration.

    ``n_iterations`` may be ``None`` when the loop bound is symbolic
    (e.g. ``i <= N``); consumers that need concrete iterations (the AGU
    simulator) must then supply a count explicitly.
    """

    pattern: AccessPattern
    start: int = 0
    n_iterations: int | None = None
    bound_symbol: str | None = None

    def __post_init__(self) -> None:
        if self.n_iterations is not None and self.n_iterations < 0:
            raise IrError(
                f"n_iterations must be >= 0, got {self.n_iterations}")

    @property
    def step(self) -> int:
        """Loop-variable increment per iteration."""
        return self.pattern.step

    @property
    def var(self) -> str:
        """The loop variable's name."""
        return self.pattern.loop_var

    def iteration_count(self, count: int | None = None) -> int:
        """The iteration count to run: ``count``, else the loop's own
        ``n_iterations``; it must be given when the bound is symbolic,
        and an explicit count must not be negative.
        """
        if count is None:
            count = self.n_iterations
        if count is None:
            raise IrError(
                "loop bound is symbolic"
                + (f" ({self.bound_symbol})" if self.bound_symbol else "")
                + "; supply an explicit iteration count")
        if count < 0:
            raise IrError(f"iteration count must be >= 0, got {count}")
        return count

    def iteration_values(self, count: int | None = None) -> list[int]:
        """Loop-variable values for ``count`` iterations.

        ``count`` defaults to the loop's own ``n_iterations``; it must be
        given when the bound is symbolic.
        """
        return [self.start + k * self.step
                for k in range(self.iteration_count(count))]

    def __str__(self) -> str:
        if self.n_iterations is not None:
            bound = str(self.start + self.n_iterations * self.step)
        else:
            bound = self.bound_symbol or "?"
        step_text = f"{self.var} += {self.step}" if self.step != 1 \
            else f"{self.var}++"
        return (f"for ({self.var} = {self.start}; {self.var} < {bound}; "
                f"{step_text}) {self.pattern}")


@dataclass(frozen=True)
class Kernel:
    """A parsed kernel: array declarations, loop, and scalar uses."""

    name: str
    loop: Loop
    arrays: tuple[ArrayDecl, ...] = ()
    scalar_uses: tuple[ScalarUse, ...] = ()
    source: str = ""
    description: str = ""
    _arrays_by_name: dict[str, ArrayDecl] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        by_name: dict[str, ArrayDecl] = {}
        for decl in self.arrays:
            if decl.name in by_name:
                raise IrError(f"duplicate array declaration {decl.name!r}")
            by_name[decl.name] = decl
        for access in self.loop.pattern:
            if access.array not in by_name:
                raise IrError(
                    f"kernel {self.name!r} accesses undeclared array "
                    f"{access.array!r}")
        object.__setattr__(self, "_arrays_by_name", by_name)

    @property
    def pattern(self) -> AccessPattern:
        """The kernel loop's access pattern."""
        return self.loop.pattern

    def array(self, name: str) -> ArrayDecl:
        """Declaration of the named array."""
        try:
            return self._arrays_by_name[name]
        except KeyError:
            raise IrError(f"kernel {self.name!r} has no array {name!r}") \
                from None

    def scalar_sequence(self) -> tuple[str, ...]:
        """Names of scalar uses in program order (offset-assignment input)."""
        return tuple(use.name for use in self.scalar_uses)
