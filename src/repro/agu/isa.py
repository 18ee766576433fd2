"""The address-computation instruction set.

Three instructions suffice to express any allocation's address code:

* :class:`Use` -- the address-register operand of a data instruction.
  Reading memory through a register is free, and a *post-modify* by a
  constant within the AGU's range rides along for free (this is the
  ``*(ARx)+d`` addressing mode of classic DSPs).
* :class:`Modify` -- an explicit add-immediate to an address register
  (``ADAR``/``SBAR`` style).  One instruction word, one cycle: this is
  the paper's "unit-cost computation".
* :class:`PointTo` -- (re-)load a register with the address of a
  symbolic array element for the *current* loop-variable value.  Also
  unit cost; used in the prologue and whenever a register crosses to a
  different array (no constant distance exists).

Costs are attached as class attributes so the simulator and the static
accounting agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodegenError
from repro.ir.layout import MemoryLayout


@dataclass(frozen=True)
class PointTo:
    """Load ``register`` with the address of ``array[coeff*i + offset]``.

    Resolved against the memory layout with the loop variable's value at
    execution time.
    """

    register: int
    array: str
    coefficient: int
    offset: int

    #: Unit cost: one extra instruction word, one extra cycle.
    cost = 1

    def resolve(self, layout: MemoryLayout, loop_value: int) -> int:
        """Concrete target address for the given loop-variable value."""
        placement = layout.placement(self.array)
        element = self.coefficient * loop_value + self.offset
        return placement.base + element * placement.decl.element_size

    def __str__(self) -> str:
        sign = "+" if self.offset >= 0 else "-"
        index = f"i{sign}{abs(self.offset)}" if self.coefficient == 1 \
            else f"{self.coefficient}*i{sign}{abs(self.offset)}"
        if self.coefficient == 0:
            index = str(self.offset)
        return f"LDAR  AR{self.register}, &{self.array}[{index}]"


@dataclass(frozen=True)
class Modify:
    """Add the constant ``delta`` to ``register`` (explicit instruction)."""

    register: int
    delta: int

    #: Unit cost: one extra instruction word, one extra cycle.
    cost = 1

    def __post_init__(self) -> None:
        if self.delta == 0:
            raise CodegenError("a Modify by 0 is useless; do not emit it")

    def __str__(self) -> str:
        mnemonic = "ADAR" if self.delta >= 0 else "SBAR"
        return f"{mnemonic}  AR{self.register}, #{abs(self.delta)}"


@dataclass(frozen=True)
class LoadMr:
    """Preload modify register ``mr_index`` with the constant ``value``.

    One-time setup instruction of the MR extension; unit cost, emitted
    in the prologue only.
    """

    mr_index: int
    value: int

    #: Unit cost: one extra instruction word, one extra cycle.
    cost = 1

    def __post_init__(self) -> None:
        if self.mr_index < 0:
            raise CodegenError(
                f"modify register index must be >= 0, got {self.mr_index}")

    def __str__(self) -> str:
        return f"LDMR  MR{self.mr_index}, #{self.value}"


@dataclass(frozen=True)
class Use:
    """Memory operand through ``register`` for access ``position``.

    ``post_modify`` is the free parallel update applied after the
    access, or ``None`` when the next update needs an explicit
    instruction.  ``post_modify_mr`` instead names a *modify register*
    whose preloaded constant is added for free (``*(ARx)+MRj``, the MR
    extension).  Free by definition either way: the data instruction
    carrying this operand exists anyway.
    """

    register: int
    position: int
    post_modify: int | None = None
    post_modify_mr: int | None = None

    #: The access itself costs nothing extra.
    cost = 0

    def __post_init__(self) -> None:
        if self.post_modify is not None and self.post_modify_mr is not None:
            raise CodegenError(
                "a Use cannot fold both an immediate and an MR post-modify")
        if self.post_modify_mr is not None and self.post_modify_mr < 0:
            raise CodegenError(
                f"modify register index must be >= 0, got "
                f"{self.post_modify_mr}")

    def __str__(self) -> str:
        if self.post_modify_mr is not None:
            operand = f"*(AR{self.register})+MR{self.post_modify_mr}"
        elif self.post_modify is None:
            operand = f"*(AR{self.register})"
        elif self.post_modify >= 0:
            operand = f"*(AR{self.register})+{self.post_modify}"
        else:
            operand = f"*(AR{self.register})-{-self.post_modify}"
        return f"USE   {operand}"


AddressInstruction = PointTo | Modify | Use | LoadMr
