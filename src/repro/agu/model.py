"""Parametric AGU specifications.

An :class:`AguSpec` captures the two parameters the paper's problem
depends on: the number of address registers ``K`` and the auto-modify
range ``M`` (post-increment/decrement reach that executes in parallel
with the data path).  Presets are shaped after the address units of
well-known fixed-point DSPs of the paper's era; they are *models*, not
cycle-accurate replicas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError


@dataclass(frozen=True)
class AguSpec:
    """An address generation unit with ``K`` registers and range ``M``.

    Attributes
    ----------
    n_registers:
        Number of address registers (the paper's ``K``).
    modify_range:
        Maximum ``|d|`` of a free post-modify (the paper's ``M``).
        ``M = 1`` models plain auto-increment/decrement.
    name:
        Human-readable identifier for reports.
    n_modify_registers:
        Number of *modify registers* (MR extension): each can be
        preloaded with one constant, and a post-modify by that constant
        is then free (``*(ARx)+MRj``).  0 reproduces the paper's model.
    """

    n_registers: int
    modify_range: int
    name: str = "generic"
    n_modify_registers: int = 0

    def __post_init__(self) -> None:
        if self.n_registers < 1:
            raise AllocationError(
                f"an AGU needs at least one address register, got "
                f"{self.n_registers}")
        if self.modify_range < 0:
            raise AllocationError(
                f"modify range must be >= 0, got {self.modify_range}")
        if self.n_modify_registers < 0:
            raise AllocationError(
                f"modify register count must be >= 0, got "
                f"{self.n_modify_registers}")

    def with_registers(self, n_registers: int) -> "AguSpec":
        """Same AGU with a different register count (for K sweeps)."""
        return AguSpec(n_registers, self.modify_range, self.name,
                       self.n_modify_registers)

    def with_modify_range(self, modify_range: int) -> "AguSpec":
        """Same AGU with a different modify range (for M sweeps)."""
        return AguSpec(self.n_registers, modify_range, self.name,
                       self.n_modify_registers)

    def __str__(self) -> str:
        text = f"{self.name}(K={self.n_registers}, M={self.modify_range}"
        if self.n_modify_registers:
            text += f", MR={self.n_modify_registers}"
        return text + ")"


#: Example AGU configurations, loosely modelled after classic DSP
#: address units (register counts per accessible file; modify range 1 is
#: the plain auto-increment/decrement every one of them supports; the
#: MR counts mirror the index/modify register files of the originals).
PRESETS: dict[str, AguSpec] = {
    "ti_c25_like": AguSpec(8, 1, "ti_c25_like", 1),
    "adsp210x_like": AguSpec(4, 1, "adsp210x_like", 4),
    "dsp56k_like": AguSpec(8, 1, "dsp56k_like", 8),
    "dsp16xx_like": AguSpec(4, 2, "dsp16xx_like", 2),
    "tight_k2": AguSpec(2, 1, "tight_k2"),
    "tight_k3": AguSpec(3, 1, "tight_k3"),
}
