"""End-to-end self-test: the library audits itself on random instances.

For each random instance the self-test runs the full chain

    allocate -> generate code -> simulate -> verify every address

and cross-checks all cost accountings (model vs static codegen count vs
dynamic simulator count), plus the phase-1 bound bracket
``LB <= K~ <= UB``.  Any violation raises immediately; the report
summarizes what was covered.  Exposed on the CLI as
``repro-agu selftest``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.agu.codegen import generate_address_code
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.core.allocator import AddressRegisterAllocator
from repro.core.config import AllocatorConfig
from repro.errors import ReproError
from repro.graph.access_graph import AccessGraph
from repro.ir.layout import MemoryLayout
from repro.ir.types import ArrayDecl, Loop
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_cover_lower_bound
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_pattern,
)


@dataclass(frozen=True)
class SelfTestReport:
    """What the self-test covered (it raises on any failure)."""

    n_instances: int
    n_accesses_verified: int
    n_unit_cost_instructions: int
    n_zero_cost_allocations: int
    n_constrained_allocations: int
    elapsed_seconds: float

    def summary(self) -> str:
        """One-line account of the instances and addresses audited."""
        return (
            f"self-test passed: {self.n_instances} instances, "
            f"{self.n_accesses_verified} addresses verified, "
            f"{self.n_unit_cost_instructions} unit-cost instructions "
            f"accounted, {self.n_constrained_allocations} constrained / "
            f"{self.n_zero_cost_allocations} free allocations "
            f"({self.elapsed_seconds:.1f} s)")


def run_self_test(n_instances: int = 100, seed: int = 0,
                  iterations_per_instance: int = 8) -> SelfTestReport:
    """Run the audit chain on ``n_instances`` random instances.

    Raises
    ------
    ReproError
        (or a subclass) on the first inconsistency found -- an address
        mismatch, a cost-accounting disagreement, or a bound violation
        -- and for fewer than one instance, which would check nothing.
    """
    if n_instances < 1:
        raise ReproError(f"n_instances must be >= 1, got {n_instances}")
    rng = random.Random(seed)
    started = time.perf_counter()

    verified = 0
    accounted = 0
    free_allocations = 0
    constrained = 0
    for index in range(n_instances):
        n = rng.randint(1, 24)
        k = rng.randint(1, 4)
        m = rng.choice([1, 1, 2, 4])
        n_arrays = rng.choice([1, 1, 1, 2])
        pattern = generate_pattern(
            RandomPatternConfig(n, offset_span=rng.choice([4, 8, 12]),
                                distribution=rng.choice(
                                    ["uniform", "clustered", "sweep"]),
                                n_arrays=n_arrays,
                                write_fraction=rng.choice([0.0, 0.3])),
            seed=rng.randrange(2 ** 30))
        spec = AguSpec(k, m)
        allocator = AddressRegisterAllocator(spec, AllocatorConfig(
            cover_node_budget=20_000))
        result = allocator.allocate(pattern)

        # Bound bracket (when phase 1 ran to a zero-cost cover).
        if result.k_tilde is not None:
            graph = AccessGraph(pattern, m)
            lower = intra_cover_lower_bound(graph)
            upper = greedy_zero_cost_cover(graph).n_paths
            if not lower <= result.k_tilde <= upper:
                raise ReproError(
                    f"instance {index}: bound violation "
                    f"{lower} <= {result.k_tilde} <= {upper}")

        program = generate_address_code(pattern, result.cover, spec)
        if program.overhead_per_iteration != result.total_cost and \
                result.cost_model.value == "steady_state":
            raise ReproError(
                f"instance {index}: static overhead "
                f"{program.overhead_per_iteration} != allocation cost "
                f"{result.total_cost}")

        layout = MemoryLayout.contiguous(
            [ArrayDecl(name, length=64) for name in pattern.arrays()],
            origin=64, gap=m + 1)
        loop = Loop(pattern, start=0,
                    n_iterations=iterations_per_instance)
        simulation = simulate(program, loop, layout)

        verified += simulation.n_accesses_verified
        accounted += simulation.loop_overhead_instructions
        if result.is_zero_cost:
            free_allocations += 1
        else:
            constrained += 1

    return SelfTestReport(
        n_instances=n_instances,
        n_accesses_verified=verified,
        n_unit_cost_instructions=accounted,
        n_zero_cost_allocations=free_allocations,
        n_constrained_allocations=constrained,
        elapsed_seconds=time.perf_counter() - started)
