"""End-to-end pipeline: kernel source to verified AGU address code."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.agu.codegen import AddressProgram, generate_address_code
from repro.agu.listing import program_listing
from repro.agu.model import AguSpec
from repro.agu.simulator import SimulationResult, simulate
from repro.core.allocator import AddressRegisterAllocator
from repro.core.config import AllocatorConfig
from repro.core.result import AllocationResult
from repro.ir.layout import MemoryLayout
from repro.ir.parser import parse_kernel
from repro.ir.types import Kernel

#: Iterations simulated when the loop bound is symbolic.
DEFAULT_SIMULATION_ITERATIONS = 16


@dataclass(frozen=True)
class CompilationArtifacts:
    """Everything produced by :func:`compile_kernel`."""

    kernel: Kernel
    allocation: AllocationResult
    program: AddressProgram
    layout: MemoryLayout
    simulation: SimulationResult | None

    @cached_property
    def listing(self) -> str:
        """The program's assembly listing, titled with the kernel name.

        Rendered on first read: most compiles (every batch job) never
        read it.
        """
        return program_listing(self.program, title=self.kernel.name)

    @property
    def overhead_per_iteration(self) -> int:
        """Static addressing overhead of the generated program, per
        iteration."""
        return self.program.overhead_per_iteration


def compile_kernel(kernel: Kernel | str, spec: AguSpec,
                   config: AllocatorConfig | None = None,
                   run_simulation: bool = True,
                   n_iterations: int | None = None,
                   optimize_array_layout: bool = False,
                   name: str = "kernel") -> CompilationArtifacts:
    """Parse (if needed), allocate, generate code, and verify a kernel.

    Parameters
    ----------
    kernel:
        A parsed :class:`~repro.ir.types.Kernel` or source text for the
        C-like frontend.
    spec:
        The target AGU.
    run_simulation:
        Verify the generated code by simulation (on by default; the
        simulation also audits that dynamic cost equals modelled cost).
    n_iterations:
        Iterations to simulate; defaults to the loop's own count, or
        :data:`DEFAULT_SIMULATION_ITERATIONS` for symbolic bounds.
    optimize_array_layout:
        Enable the array-layout extension: choose array bases so that
        frequent cross-array register transitions become free, and emit
        layout-aware code (see :mod:`repro.arraylayout`).
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel, name=name)

    allocator = AddressRegisterAllocator(spec, config)
    allocation = allocator.allocate(kernel)
    if optimize_array_layout:
        from repro.arraylayout.optimize import optimize_layout
        plan = optimize_layout(kernel.pattern, allocation.cover,
                               kernel.arrays, spec.modify_range,
                               model=allocator.config.cost_model)
        layout = plan.layout
        program = generate_address_code(kernel.pattern, allocation.cover,
                                        spec, layout=layout)
    else:
        # A guard gap beyond the modify range keeps distinct arrays
        # outside each other's auto-modify reach, matching the cost
        # model's "other array is never free" assumption in simulated
        # address space too.
        layout = MemoryLayout.for_kernel(kernel, gap=spec.modify_range + 1)
        program = generate_address_code(kernel.pattern, allocation.cover,
                                        spec)

    simulation = None
    if run_simulation:
        count = n_iterations
        if count is None and kernel.loop.n_iterations is None:
            count = DEFAULT_SIMULATION_ITERATIONS
        simulation = simulate(program, kernel.loop, layout,
                              n_iterations=count)
    return CompilationArtifacts(kernel, allocation, program, layout,
                                simulation)
