"""repro: reproduction of Basu/Leupers/Marwedel, DATE 1998.

Register-constrained address computation for DSP programs: access-graph
modelling, minimum zero-cost path covers (phase 1), register-constrained
best-pair path merging (phase 2), and the substrates needed to evaluate
them: a C-like kernel frontend, an AGU model with code generation and a
verifying simulator, DSP workloads, and the statistical experiment
harness behind the paper's Results section.

Quickstart
----------
>>> from repro import AguSpec, AddressRegisterAllocator, parse_kernel
>>> kernel = parse_kernel('''
...     for (i = 2; i <= N; i++) {
...         A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
...     }
... ''')
>>> allocator = AddressRegisterAllocator(AguSpec(n_registers=2, modify_range=1))
>>> result = allocator.allocate(kernel)
>>> result.k_tilde, result.n_registers_used, result.total_cost
(3, 2, 2)
"""

from repro.agu import (
    AddressProgram,
    AguSpec,
    PRESETS,
    SimulationResult,
    generate_address_code,
    program_listing,
    simulate,
)
from repro.batch import (
    BatchCompiler,
    BatchJob,
    BatchReport,
    InMemoryLRUCache,
    JobResult,
    ShardedDirectoryCache,
    job_digest,
    job_matrix,
    jobs_from_kernels,
    jobs_from_random,
    jobs_from_suite,
    open_cache,
    open_executor,
)
from repro.core import (
    AddressRegisterAllocator,
    AllocationResult,
    AllocatorConfig,
    CompilationArtifacts,
    compile_kernel,
)
from repro.graph import AccessGraph, graph_to_ascii, graph_to_dot
from repro.ir import (
    AccessPattern,
    AffineExpr,
    ArrayAccess,
    ArrayDecl,
    Kernel,
    Loop,
    LoopBuilder,
    MemoryLayout,
    loop_from_offsets,
    parse_kernel,
    pattern_from_offsets,
)
from repro.merging import (
    CostModel,
    best_pair_merge,
    cover_cost,
    naive_merge,
    optimal_allocation,
    path_cost,
)
from repro.modreg import allocate_with_modify_registers
from repro.pathcover import (
    Path,
    PathCover,
    greedy_zero_cost_cover,
    intra_cover_lower_bound,
    minimum_zero_cost_cover,
)
from repro.reorder import reorder_accesses
from repro.workloads import (
    RandomPatternConfig,
    load_trace,
    parse_trace,
    save_trace,
)

__version__ = "1.1.0"

__all__ = [
    "AccessGraph",
    "AccessPattern",
    "AddressProgram",
    "AddressRegisterAllocator",
    "AffineExpr",
    "AguSpec",
    "AllocationResult",
    "AllocatorConfig",
    "ArrayAccess",
    "ArrayDecl",
    "BatchCompiler",
    "BatchJob",
    "BatchReport",
    "CompilationArtifacts",
    "CostModel",
    "InMemoryLRUCache",
    "JobResult",
    "Kernel",
    "Loop",
    "LoopBuilder",
    "MemoryLayout",
    "PRESETS",
    "Path",
    "PathCover",
    "RandomPatternConfig",
    "ShardedDirectoryCache",
    "SimulationResult",
    "allocate_with_modify_registers",
    "best_pair_merge",
    "compile_kernel",
    "cover_cost",
    "generate_address_code",
    "graph_to_ascii",
    "graph_to_dot",
    "greedy_zero_cost_cover",
    "intra_cover_lower_bound",
    "job_digest",
    "job_matrix",
    "jobs_from_kernels",
    "jobs_from_random",
    "jobs_from_suite",
    "load_trace",
    "loop_from_offsets",
    "minimum_zero_cost_cover",
    "naive_merge",
    "open_cache",
    "open_executor",
    "optimal_allocation",
    "parse_kernel",
    "parse_trace",
    "path_cost",
    "pattern_from_offsets",
    "program_listing",
    "reorder_accesses",
    "save_trace",
    "simulate",
]
