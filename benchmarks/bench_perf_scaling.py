"""EXP-P1: runtime scaling of the library's algorithms.

Micro-benchmarks over the building blocks so performance regressions in
the solvers show up directly: graph construction, matching, the exact
branch-and-bound, the greedy cover, best-pair merging, codegen, the
simulator, and SOA -- plus the batch engine's and the sharded EXP-S1
grid's throughput across process-pool widths, and the per-point
throughput of every registered ablation experiment (``-k ablate``).
Cold and warm library sweeps, the EXP-S1 grid and the compile service
are measured by the repository benchmark (``perfbench/``), not here.

The ``-k solver`` micro-suite times the single-point hot paths (access
graph construction and memoized lookup, the exact branch-and-bound,
best-pair and naive merging, greedy GOA, the SOA oracle, and
job-payload digesting).  It is the only selection
``tools/bench_trajectory.py`` records into the repo's ``BENCH_*.json``
perf trajectory, next to traced perfbench runs, and what
``tools/check_bench_regression.py`` holds to 3x in CI -- see
``docs/BENCHMARKS.md``.
"""
import pytest

from _bench_util import run_once

from repro.analysis.experiments import (
    StatisticalConfig,
    run_experiment,
    run_statistical_comparison,
)
from repro.batch.cache import InMemoryLRUCache
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import jobs_from_suite
from repro.batch.registry import get_experiment, registered_experiments

from repro.agu.codegen import generate_address_code
from repro.agu.model import AguSpec
from repro.agu.simulator import simulate
from repro.graph.access_graph import AccessGraph
from repro.ir.layout import MemoryLayout
from repro.ir.parser import parse_kernel
from repro.ir.types import ArrayDecl, Loop
from repro.merging.greedy import best_pair_merge
from repro.merging.naive import naive_merge
from repro.pathcover.branch_and_bound import minimum_zero_cost_cover
from repro.pathcover.heuristic import greedy_zero_cost_cover
from repro.pathcover.lower_bound import intra_cover_lower_bound
from repro.offset.soa import tiebreak_soa
from repro.offset.sequence import random_sequence
from repro.workloads.kernels import KERNELS
from repro.workloads.random_patterns import (
    RandomPatternConfig,
    generate_pattern,
)


@pytest.mark.parametrize("n", [20, 40, 80])
def bench_graph_construction(benchmark, n):
    pattern = generate_pattern(RandomPatternConfig(n, offset_span=10),
                               seed=1)
    graph = benchmark(AccessGraph, pattern, 1)
    assert graph.n_nodes == n


@pytest.mark.parametrize("n", [40, 120, 360])
def bench_matching_lower_bound(benchmark, n):
    pattern = generate_pattern(RandomPatternConfig(n, offset_span=12),
                               seed=2)
    graph = AccessGraph(pattern, 1)
    bound = benchmark(intra_cover_lower_bound, graph)
    assert 1 <= bound <= n


@pytest.mark.parametrize("n", [12, 18, 24])
def bench_exact_cover(benchmark, n):
    pattern = generate_pattern(RandomPatternConfig(n, offset_span=6),
                               seed=3)
    result = benchmark(minimum_zero_cost_cover, pattern, 1)
    assert result.k_tilde >= 1


@pytest.mark.parametrize("n", [40, 80, 160])
def bench_greedy_cover(benchmark, n):
    pattern = generate_pattern(RandomPatternConfig(n, offset_span=10),
                               seed=4)
    graph = AccessGraph(pattern, 1)
    cover = benchmark(greedy_zero_cost_cover, graph)
    assert cover.n_accesses == n


@pytest.mark.parametrize("n", [20, 40, 80])
def bench_best_pair_merging(benchmark, n):
    pattern = generate_pattern(RandomPatternConfig(n, offset_span=10),
                               seed=5)
    graph = AccessGraph(pattern, 1)
    cover = greedy_zero_cost_cover(graph)

    def merge():
        return best_pair_merge(cover, 2, pattern, 1)

    result = benchmark(merge)
    assert result.n_registers <= 2


def bench_parser_on_kernel_library(benchmark):
    sources = [entry.source for entry in KERNELS.values()]

    def parse_all():
        return [parse_kernel(source) for source in sources]

    kernels = benchmark(parse_all)
    assert len(kernels) == len(KERNELS)


def bench_codegen_and_simulation(benchmark):
    pattern = generate_pattern(RandomPatternConfig(30, offset_span=8),
                               seed=6)
    graph = AccessGraph(pattern, 1)
    cover = greedy_zero_cost_cover(graph)
    merged = best_pair_merge(cover, 4, pattern, 1)
    spec = AguSpec(4, 1)
    program = generate_address_code(pattern, merged.cover, spec)
    loop = Loop(pattern, start=0, n_iterations=100)
    layout = MemoryLayout.contiguous([ArrayDecl("A", length=256)],
                                     origin=16)

    result = benchmark(simulate, program, loop, layout)
    assert result.n_accesses_verified == 100 * 30


@pytest.mark.parametrize("length", [50, 200])
def bench_soa_tiebreak(benchmark, length):
    sequence = random_sequence(12, length, seed=7, locality=0.4)
    layout = benchmark(tiebreak_soa, sequence)
    assert sorted(layout) == sorted(sequence.variables())


@pytest.mark.parametrize("workers", [1, 2, 4])
def bench_batch_full_suite_parallel(benchmark, workers):
    """Whole-library throughput vs process-pool width (cold cache)."""
    jobs = jobs_from_suite("full", AguSpec(4, 1), n_iterations=4)
    report = run_once(
        benchmark,
        lambda: BatchCompiler(cache=InMemoryLRUCache(),
                              executor=f"local:{workers}").compile(jobs))
    assert report.n_jobs == len(jobs) and report.all_audits_ok


#: A mid-size EXP-S1 grid (12 points) for the sharding benchmarks:
#: large enough that fan-out matters, small enough for CI benches.
_STATS_GRID = StatisticalConfig(
    n_values=(10, 15, 20), m_values=(1, 2), k_values=(2, 3),
    patterns_per_config=10, naive_repeats=3)


@pytest.mark.parametrize("workers", [1, 2, 4])
def bench_stats_grid_parallel(benchmark, workers):
    """EXP-S1 grid throughput vs process-pool width (cold cache)."""
    summary = run_once(
        benchmark,
        lambda: run_statistical_comparison(
            _STATS_GRID, executor=f"local:{workers}"))
    assert len(summary.rows) == len(_STATS_GRID.grid())
    assert summary.n_points_compiled == len(_STATS_GRID.grid())


#: All registered per-point ablation experiments (EXP-A1..A3, EXP-O1,
#: EXP-X1..X3), benched on their quick grids; a newly registered
#: experiment joins the benches automatically.
_ABLATE_EXPERIMENTS = registered_experiments()


@pytest.mark.parametrize("experiment", _ABLATE_EXPERIMENTS)
def bench_ablate_points_cold(benchmark, experiment):
    """Per-experiment point throughput with an empty cache."""
    config = get_experiment(experiment).quick_config()
    summary = run_once(benchmark,
                       lambda: run_experiment(experiment, config))
    assert summary.n_points_compiled > 0
    assert summary.n_points_cached == 0


@pytest.mark.parametrize("experiment", _ABLATE_EXPERIMENTS)
def bench_ablate_points_cached(benchmark, experiment):
    """Per-experiment point throughput on a warm shared cache: a
    cached re-run recomputes nothing."""
    config = get_experiment(experiment).quick_config()
    cache = InMemoryLRUCache()
    run_experiment(experiment, config, cache=cache)

    summary = run_once(benchmark, run_experiment, experiment, config,
                       cache=cache)
    assert summary.n_points_compiled == 0
    assert summary.n_points_cached > 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def bench_ablate_grid_parallel(benchmark, workers):
    """Ablation point fan-out vs process-pool width (cold cache, on
    the widest default grid: EXP-A1's exact covers)."""
    config = get_experiment("pathcover").quick_config()
    summary = run_once(
        benchmark,
        lambda: run_experiment("pathcover", config,
                               executor=f"local:{workers}"))
    assert summary.n_points_compiled > 0


# ----------------------------------------------------------------------
# Solver hot-path micro-suite (-k solver)
# ----------------------------------------------------------------------
# The per-point costs underneath every experiment grid.  These benches
# feed the persisted perf trajectory (BENCH_*.json); they run against
# optimized and pre-optimization checkouts alike, so the fallbacks
# below let the same bench file record honest "before" numbers.
try:
    from repro.graph.access_graph import cached_access_graph
except ImportError:  # pre-memoization baseline checkouts
    cached_access_graph = AccessGraph

#: One loop iteration's accesses, sized like a large EXP-S1 point.
_SOLVER_GRAPH_PATTERN = generate_pattern(
    RandomPatternConfig(96, offset_span=10), seed=11)

#: A proven-optimal but search-heavy exact-cover instance (~44k nodes).
_SOLVER_COVER_PATTERN = generate_pattern(
    RandomPatternConfig(22, offset_span=6), seed=3)


def bench_solver_access_graph(benchmark):
    """Raw access-graph construction (the O(edges) hot loop)."""
    graph = benchmark(AccessGraph, _SOLVER_GRAPH_PATTERN, 4)
    assert graph.n_nodes == 96


def bench_solver_access_graph_memoized(benchmark):
    """Warm per-(pattern, M) graph lookup, as the EXP grids see it."""
    cached_access_graph(_SOLVER_GRAPH_PATTERN, 4)  # prime the memo

    graph = benchmark(cached_access_graph, _SOLVER_GRAPH_PATTERN, 4)
    assert graph.n_nodes == 96


def bench_solver_exact_cover(benchmark):
    """The phase-1 branch-and-bound on a search-heavy instance."""
    result = benchmark(minimum_zero_cost_cover, _SOLVER_COVER_PATTERN, 1)
    assert result.k_tilde == 8 and result.optimal


#: An EXP-S1-grid-shaped phase-2 instance: N=40 (span 8, uniform) at
#: M=1 merged down to K=2 from the greedy cover, as the grid's N=40
#: rows start phase 2 (they exceed the exact-cover limit).
_SOLVER_MERGE_PATTERN = generate_pattern(
    RandomPatternConfig(40, offset_span=8), seed=12)
_SOLVER_MERGE_COVER = greedy_zero_cost_cover(
    AccessGraph(_SOLVER_MERGE_PATTERN, 1))


def bench_solver_best_pair_merge(benchmark):
    """Phase 2's best-pair merge (the paper's heuristic)."""
    result = benchmark(best_pair_merge, _SOLVER_MERGE_COVER, 2,
                       _SOLVER_MERGE_PATTERN, 1)
    assert result.n_registers == 2
    assert len(result.steps) == _SOLVER_MERGE_COVER.n_paths - 2


def bench_solver_naive_merge(benchmark):
    """Phase 2's random naive merge (EXP-S1's baseline)."""
    result = benchmark(naive_merge, _SOLVER_MERGE_COVER, 2,
                       _SOLVER_MERGE_PATTERN, 1)
    assert result.n_registers == 2


def bench_solver_goa_greedy(benchmark):
    """Greedy GOA local search (the EXP-O1 per-sequence hot path)."""
    from repro.offset.goa import goa_greedy

    sequence = random_sequence(12, 160, seed=21, locality=0.5)
    result = benchmark(goa_greedy, sequence, 4)
    assert result.n_registers <= 4


def bench_solver_optimal_assignment(benchmark):
    """The exhaustive SOA oracle (mirror-pruned factorial search)."""
    from repro.offset.soa import assignment_cost, optimal_assignment

    sequence = random_sequence(8, 40, seed=22, locality=0.5)
    layout = benchmark(optimal_assignment, sequence, 1, 8)
    assert assignment_cost(layout, sequence) \
        == assignment_cost(optimal_assignment(sequence, 1, 8), sequence)


#: A nested job-payload shape (dataclass-free slice of a point job).
_SOLVER_DIGEST_PAYLOAD = {
    "v": 1, "experiment": "exp-point/pathcover",
    "params": {"n": 26, "m": 1, "patterns": 8, "offset_span": 6,
               "distribution": "uniform", "seed": 424242,
               "node_budget": 50_000,
               "tags": frozenset({"a", "b", "c", "d"}),
               "nested": [{"k": k, "vals": list(range(10))}
                          for k in range(20)]},
}


def bench_solver_digest(benchmark):
    """Content-addressing throughput: 100 canonical-JSON digests."""
    from repro.batch.digest import digest_payload

    def digest_100():
        return [digest_payload(_SOLVER_DIGEST_PAYLOAD)
                for _ in range(100)]

    digests = benchmark(digest_100)
    assert len(set(digests)) == 1
