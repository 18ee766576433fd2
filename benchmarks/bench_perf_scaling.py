"""EXP-P1: runtime scaling of the library's algorithms.

Micro-benchmarks over the building blocks so performance regressions in
the solvers show up directly: graph construction, matching, the exact
branch-and-bound, the greedy cover, best-pair merging, codegen, the
simulator, and SOA -- plus the batch engine's suite throughput (cold,
cached, and parallel), the sharded EXP-S1 grid's throughput, the
per-point throughput of every registered ablation experiment
(``-k ablate``), the remote cache service's round-trip and
batched-put throughput against its local in-process baseline
(``-k remote``), and the compile service's warm round-trip and
concurrent-load latency SLO -- p50/p95/p99 into ``extra_info`` --
(``-k bench_serve``).

The ``-k solver`` micro-suite times the single-point hot paths (access
graph construction and memoized lookup, the exact branch-and-bound,
greedy GOA, the SOA oracle, and job-payload digesting); it is what
``tools/bench_trajectory.py`` records into the repo's ``BENCH_*.json``
perf trajectory and what ``tools/check_bench_regression.py`` gates in
CI -- see ``docs/BENCHMARKS.md``.
"""

import io
import time
from contextlib import contextmanager

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


def bench_batch_suite_cold(benchmark):
    """Suite throughput with an empty cache: every job compiles."""
    jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)

    def run_cold():
        return BatchCompiler(cache=InMemoryLRUCache()).compile(jobs)

    report = benchmark(run_cold)
    assert report.n_compiled == report.n_jobs and report.all_audits_ok


def bench_batch_suite_cached(benchmark):
    """Suite throughput on a warm cache: zero recompilations."""
    compiler = BatchCompiler()
    jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)
    compiler.compile(jobs)

    report = benchmark(compiler.compile, jobs)
    assert report.n_cache_hits == report.n_jobs


@pytest.mark.parametrize("workers", [1, 2, 4])
def bench_batch_full_suite_parallel(benchmark, workers):
    """Whole-library throughput vs process-pool width (cold cache)."""
    jobs = jobs_from_suite("full", AguSpec(4, 1), n_iterations=4)
    report = run_once(
        benchmark,
        lambda: BatchCompiler(cache=InMemoryLRUCache(),
                              n_workers=workers).compile(jobs))
    assert report.n_jobs == len(jobs) and report.all_audits_ok


#: A mid-size EXP-S1 grid (12 points) for the sharding benchmarks:
#: large enough that fan-out matters, small enough for CI benches.
_STATS_GRID = StatisticalConfig(
    n_values=(10, 15, 20), m_values=(1, 2), k_values=(2, 3),
    patterns_per_config=10, naive_repeats=3)


def bench_stats_grid_cold(benchmark):
    """EXP-S1 grid throughput with an empty cache: every point runs."""
    summary = run_once(benchmark, run_statistical_comparison,
                       _STATS_GRID)
    assert summary.n_points_compiled == len(_STATS_GRID.grid())
    assert summary.n_points_cached == 0


def bench_stats_grid_cached(benchmark):
    """EXP-S1 grid on a warm shared cache: zero recomputations."""
    cache = InMemoryLRUCache()
    run_statistical_comparison(_STATS_GRID, cache=cache)

    summary = run_once(benchmark, run_statistical_comparison,
                       _STATS_GRID, cache=cache)
    assert summary.n_points_compiled == 0
    assert summary.n_points_cached == len(_STATS_GRID.grid())


@pytest.mark.parametrize("workers", [1, 2, 4])
def bench_stats_grid_parallel(benchmark, workers):
    """EXP-S1 grid throughput vs process-pool width (cold cache)."""
    summary = run_once(
        benchmark,
        lambda: run_statistical_comparison(_STATS_GRID,
                                           n_workers=workers))
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
        lambda: run_experiment("pathcover", config, n_workers=workers))
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


# ----------------------------------------------------------------------
# Remote cache service (-k remote)
# ----------------------------------------------------------------------
#: A representative cached payload (the shape of a lowered JobResult).
_REMOTE_PAYLOAD = {
    "name": "bench", "digest": "d" * 64, "n_accesses": 17,
    "n_registers": 4, "modify_range": 1, "k_tilde": 5,
    "n_registers_used": 4, "total_cost": 3,
    "overhead_per_iteration": 3, "baseline_overhead": 17,
    "simulated": True, "audit_ok": True, "wall_seconds": 0.01,
}


def bench_remote_cache_roundtrip_local(benchmark):
    """Baseline: one put + one get against the in-process store."""
    cache = InMemoryLRUCache()

    def roundtrip():
        cache.put("d" * 64, _REMOTE_PAYLOAD)
        return cache.get("d" * 64)

    assert benchmark(roundtrip) == _REMOTE_PAYLOAD


def bench_remote_cache_roundtrip_served(benchmark):
    """One put + one get through the TCP cache service (the per-point
    streaming cost a remote-shared run pays)."""
    from repro.batch.service import CacheServer, RemoteCache

    with CacheServer(InMemoryLRUCache()) as server:
        client = RemoteCache(*server.address)

        def roundtrip():
            client.put("d" * 64, _REMOTE_PAYLOAD)
            return client.get("d" * 64)

        assert benchmark(roundtrip) == _REMOTE_PAYLOAD


@pytest.mark.parametrize("batch_size", [1, 64, 256])
def bench_remote_put_many_batched(benchmark, batch_size):
    """Batched-put throughput vs frames-per-batch: 256 entries pushed
    through the service in ``batch_size``-entry protocol frames."""
    from repro.batch.service import CacheServer, RemoteCache

    entries = {f"{index:064d}": dict(_REMOTE_PAYLOAD, total_cost=index)
               for index in range(256)}
    with CacheServer(InMemoryLRUCache(capacity=4096)) as server:
        client = RemoteCache(*server.address, batch_size=batch_size)
        benchmark(client.put_many, entries)
        assert client.get("0" * 61 + "255") == dict(_REMOTE_PAYLOAD,
                                                    total_cost=255)


def bench_remote_warm_suite_through_server(benchmark):
    """A fully cached suite run served entirely over the wire."""
    from repro.batch.service import CacheServer, RemoteCache

    jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)
    with CacheServer(InMemoryLRUCache()) as server:
        client = RemoteCache(*server.address)
        BatchCompiler(cache=client).compile(jobs)

        report = benchmark(BatchCompiler(cache=client).compile, jobs)
        assert report.n_cache_hits == len(jobs)


# ----------------------------------------------------------------------
# Compile service (-k bench_serve)
# ----------------------------------------------------------------------
#: The kernel-library rotation the serve benches request (distinct
#: digests, all small).
_SERVE_KERNELS = ("fir8", "saxpy", "energy", "vector_add",
                  "dot_product", "moving_average4")


def _percentile_ms(latencies, quantile: float) -> float:
    """The ``quantile`` latency (nearest-rank) in milliseconds."""
    ranked = sorted(latencies)
    rank = max(0, int(len(ranked) * quantile + 0.5) - 1)
    return ranked[rank] * 1000.0


def bench_serve_warm_roundtrip(benchmark):
    """One warm compile request through the serve endpoint: the
    hot-path floor (warm in-process tier, no engine, no batching)."""
    from repro.batch.serving import CompileService, ServeClient

    with CompileService() as service:
        client = ServeClient(service.endpoint)
        client.compile(kernel="fir8")  # prime the warm tier

        answer = benchmark(client.compile, kernel="fir8")
        assert answer.cached


def bench_serve_cold_burst_coalesces(benchmark):
    """A concurrent cold burst (6 distinct kernels at once): what
    micro-batching buys -- the requests coalesce into a handful of
    engine batches instead of one batch per request."""
    import threading

    from repro.batch.serving import CompileService, ServeClient

    def burst():
        with CompileService(batch_window=0.02) as service:
            client = ServeClient(service.endpoint,
                                 pool_size=len(_SERVE_KERNELS))
            answers = [None] * len(_SERVE_KERNELS)

            def request(index: int, name: str) -> None:
                answers[index] = client.compile(kernel=name)

            threads = [threading.Thread(target=request, args=pair)
                       for pair in enumerate(_SERVE_KERNELS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            return answers, service.stats.batches

    answers, batches = run_once(benchmark, burst)
    assert all(answer is not None for answer in answers)
    assert 1 <= batches <= len(_SERVE_KERNELS)


def bench_serve_latency_slo(benchmark):
    """Request latency under concurrent load: 8 client threads, 96
    warm requests total, one shared pooled client.  Records the
    p50/p95/p99 SLO numbers into ``extra_info`` so the perf
    trajectory (``tools/bench_trajectory.py``) archives them."""
    import threading
    import time as time_module

    from repro.batch.serving import CompileService, ServeClient

    n_threads, per_thread = 8, 12
    with CompileService(batch_window=0.002) as service:
        client = ServeClient(service.endpoint, pool_size=n_threads)
        for name in _SERVE_KERNELS:
            client.compile(kernel=name)  # prime every kernel

        def load() -> list[float]:
            latencies: list[list[float]] = [[] for _ in range(n_threads)]

            def drive(slot: int) -> None:
                for index in range(per_thread):
                    name = _SERVE_KERNELS[
                        (slot + index) % len(_SERVE_KERNELS)]
                    started = time_module.perf_counter()
                    answer = client.compile(kernel=name)
                    elapsed = time_module.perf_counter() - started
                    latencies[slot].append(elapsed)
                    assert answer.cached

            threads = [threading.Thread(target=drive, args=(slot,))
                       for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            return [sample for bucket in latencies
                    for sample in bucket]

        samples = run_once(benchmark, load)
    assert len(samples) == n_threads * per_thread
    p50 = _percentile_ms(samples, 0.50)
    p95 = _percentile_ms(samples, 0.95)
    p99 = _percentile_ms(samples, 0.99)
    assert p50 <= p95 <= p99
    benchmark.extra_info["requests"] = len(samples)
    benchmark.extra_info["p50_ms"] = round(p50, 3)
    benchmark.extra_info["p95_ms"] = round(p95, 3)
    benchmark.extra_info["p99_ms"] = round(p99, 3)


# ----------------------------------------------------------------------
# Distributed execution service (-k cluster)
# ----------------------------------------------------------------------
@contextmanager
def _worker_fleet(n_workers: int, **server_kwargs):
    """A JobServer plus in-process worker threads (real TCP + framing,
    in-thread execution), so the benches measure protocol and
    scheduling overhead without fork noise.  Keyword arguments pass
    through to :class:`JobServer` (the sched benches set a trace
    sink)."""
    import threading

    from repro.batch.cluster import JobServer, Worker

    with JobServer(**server_kwargs) as server:
        workers = [Worker(*server.address, poll=0.05)
                   for _ in range(n_workers)]
        threads = [threading.Thread(target=worker.run, daemon=True)
                   for worker in workers]
        for thread in threads:
            thread.start()
        try:
            yield server
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=10.0)


def bench_cluster_job_roundtrip(benchmark):
    """One trivial job through submit -> lease -> execute -> stream:
    the per-job floor the execution service adds over inline."""
    from repro.batch.cluster import ClusterExecutor

    jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)[:1]
    with _worker_fleet(1) as server:
        executor = ClusterExecutor(*server.address)

        def roundtrip():
            return BatchCompiler(executor=executor).compile(jobs)

        report = benchmark(roundtrip)
        assert report.n_jobs == 1


def bench_cluster_suite_throughput(benchmark):
    """The core8 suite through a job server with two workers (compare
    with bench_batch_suite_cold for the inline baseline)."""
    from repro.batch.cluster import ClusterExecutor

    jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)
    with _worker_fleet(2) as server:
        executor = ClusterExecutor(*server.address)

        def run():
            return BatchCompiler(executor=executor).compile(jobs)

        report = benchmark(run)
        assert report.n_jobs == len(jobs) and report.all_audits_ok


# ----------------------------------------------------------------------
# Job scheduling + trace observability (-k sched)
# ----------------------------------------------------------------------
class SchedSleepJob:
    """A picklable cluster job whose runtime *is* its size hint.

    ``sleep`` releases the GIL, so a two-thread fleet overlaps these
    even on a one-core CI box -- the makespan measures the *schedule*,
    not the interpreter.
    """

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    @property
    def size_hint(self) -> float:
        """Advisory size estimate: the declared runtime."""
        return self.seconds

    def execute(self) -> str:
        """Sleep for the declared duration; the name is the result."""
        time.sleep(self.seconds)
        return self.name


def _sched_jobs() -> list:
    """The sched bench mix: eleven 15 ms points and one 120 ms
    straggler submitted *last* -- the worst case for first-come
    dispatch on a two-worker fleet, and what the job server's
    largest-hint-first order fixes."""
    jobs = [SchedSleepJob(f"small{i}", 0.015) for i in range(11)]
    jobs.append(SchedSleepJob("big", 0.12))
    return jobs


def _run_sched_batch(benchmark):
    """One traced batch of :func:`_sched_jobs` through a two-worker
    fleet; trace-derived makespan, critical path, and per-worker
    utilization land in ``extra_info``."""
    from repro.batch.cluster import ClusterExecutor
    from repro.batch.trace import analyze_trace, read_trace

    sink = io.StringIO()
    with _worker_fleet(2, trace=sink) as server:
        executor = ClusterExecutor(*server.address)

        def run():
            return dict(executor.run(_sched_jobs()))

        results = run_once(benchmark, run)
    assert len(results) == 12
    report = analyze_trace(read_trace(io.StringIO(sink.getvalue())))
    assert report.n_completed == 12
    benchmark.extra_info["trace_makespan_s"] = round(report.makespan, 4)
    benchmark.extra_info["trace_critical_path_s"] = \
        round(report.critical_path_seconds, 4)
    benchmark.extra_info["trace_utilization"] = {
        name: round(worker.utilization, 3)
        for name, worker in sorted(report.workers.items())}


def bench_sched_size_ordered(benchmark):
    """The straggler-last mix: the hinted straggler leases first and
    the small points pack around it on the other worker."""
    _run_sched_batch(benchmark)


def bench_sched_trace_analyze(benchmark):
    """Analyzer throughput: lowering a recorded two-worker trace to a
    report (the ``repro-agu trace`` hot path)."""
    from repro.batch.cluster import ClusterExecutor
    from repro.batch.trace import analyze_trace, read_trace

    sink = io.StringIO()
    with _worker_fleet(2, trace=sink) as server:
        executor = ClusterExecutor(*server.address)
        results = dict(executor.run(_sched_jobs()))
        assert len(results) == 12
    trace = read_trace(io.StringIO(sink.getvalue()))

    report = benchmark(analyze_trace, trace)
    assert report.n_completed == 12 and report.workers
